package main

import "time"

// workloads is the benchmark's table; BENCHMARK.json repeats name and why.
// All four are closed loops driven from this one process by at most nproc
// (2) client goroutines or connections; none uses quiescence detection.
var workloads = []*workloadDef{
	{
		name:   "stencil_fine",
		why:    "paper stencil3d overdecomposed (256 blocks on 2 PEs): ~1300 by-reference ghost messages per step load core scheduling and expr; ser/transport idle",
		budget: "stencil_step",
		// 8×8×4 blocks of 8×8×16 cells; jobs of 140–160 steps ≈ 0.3 s, each
		// followed by 75 sequential steps
		boot: bootStencil(8, 8, 4, 140, 160, 75),
	},
	{
		name:   "stencil_coarse",
		why:    "control: same grid, one block per PE, 2 messages per step, kernel-bound; a scheduler or expr change must leave it unmoved",
		budget: "stencil_step_coarse",
		// 2×1×1 blocks of 32×64×64 cells; jobs of 780–820 steps ≈ 0.4 s, each
		// followed by 200 sequential steps
		boot: bootStencil(2, 1, 1, 780, 820, 200),
	},
	{
		name:   "stream_tcp",
		why:    "one-way flood of smallest messages over loopback TCP: per-message cost of ser codecs, aggregator, TCP framing, receive dispatch; stencils bypass all",
		winDur: 500 * time.Millisecond,
		budget: "stream_msg",
		boot:   bootStream,
	},
	{
		name:   "kv_closed",
		why:    "flagship kvservice, latency-bound request/reply (75% Get, 25% Put) through the same ser/aggregator/transport layers: batching that waits shows here",
		winDur: 500 * time.Millisecond,
		budget: "kv_get",
		boot:   bootKV,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
