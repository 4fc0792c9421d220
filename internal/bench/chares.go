package bench

import "charmgo/internal/core"

// Ping is the dispatch-ablation chare shared by the root BenchmarkDispatch*
// and BenchmarkRemoteInvokeRate suites and the repo benchmark. It binds
// typed entry-method handles: benchmarks that want the typed path register
// Ping, benchmarks that want the reflective baseline register a
// locally-declared twin with no handles.
type Ping struct {
	core.Chare
	N int
}

func init() {
	core.Bind[Ping](
		core.EM1((*Ping).Count),
		core.EM1((*Ping).Ping),
		core.EM1((*Ping).PingVec),
	)
}

// Ping accumulates x; the per-message work is negligible so the benchmark
// isolates dispatch and codec cost.
func (p *Ping) Ping(x int) { p.N += x }

// Count completes done with the accumulated total, acting as the flush
// barrier after a flood of Ping messages.
func (p *Ping) Count(done core.Future) { done.Send(p.N) }

// Vec3 is the struct-argument payload: flat-codable, so the flat codec Bind
// gives it carries three fixed-width fields where the fallback path pays a
// full gob encode per message.
type Vec3 struct {
	X, Y, Z float64
}

// PingVec is Ping with a struct argument, isolating the codec (rather than
// dispatch) half of the typed-handle win.
func (p *Ping) PingVec(v Vec3) { p.N += int(v.X) }
