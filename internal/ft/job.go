package ft

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/metrics"
	"charmgo/internal/transport"
)

// Job is one node's fault-tolerant run driver: it owns the node's snapshot
// store across runtime incarnations and loops
//
//	build transport → wrap (chaos) → arm detector → run the job
//
// restarting from the in-memory snapshots whenever the detector reports a
// peer death, until the job exits cleanly or becomes unrecoverable. This is
// the recovery state machine of DESIGN.md §3.4: RUN → (death detected)
// ABORT → REBUILD (shrunken transport mesh) → RESTORE (buddy election +
// re-injection) → RUN.
type Job struct {
	cfg   Config
	store *Manager

	mu       sync.Mutex
	killed   bool
	curRT    *core.Runtime
	failedAt time.Time

	mRecoveries *metrics.Counter
	mRecoveryMS *metrics.Histogram
	mLastMS     *metrics.Gauge
	mHBSent     *metrics.Counter
	mHBMiss     *metrics.Counter
	mDeaths     *metrics.Counter
}

// TransportFactory builds the transport for one recovery round. live holds
// the surviving nodes' original ids in ascending order; self is this node's
// original id (always present in live). The returned transport must number
// nodes 0..len(live)-1 in live order.
type TransportFactory func(round int, live []int, self int) (transport.Transport, error)

// Config configures a Job.
type Config struct {
	// Node is this node's original id; Nodes the job's initial width.
	Node, Nodes int
	// PEs per node.
	PEs int
	// Transport builds each round's mesh.
	Transport TransportFactory
	// Wrap optionally interposes a fault-injection layer (e.g. *Chaos)
	// between the transport and the failure detector.
	Wrap func(round int, t transport.Transport) transport.Transport
	// Register registers chare types on each incarnation's runtime.
	Register func(rt *core.Runtime)
	// Fresh is the round-0 entry point; Restore resumes after a recovery
	// with proxies to the restored collections and the restored epoch.
	// Both must call self.Exit() when the job is complete.
	Fresh   func(self *core.Chare)
	Restore func(self *core.Chare, colls map[core.CID]core.Proxy, epoch int64)
	// Heartbeat/Suspicion tune the failure detector (see DetectorOptions).
	Heartbeat time.Duration
	Suspicion time.Duration
	// Runtime is the core.Config template for each incarnation; PEs,
	// Transport and FT are overwritten by the driver. Trace/Metrics set
	// here also instrument the detector and the recovery timer.
	Runtime core.Config
}

// ErrKilled is returned by Run on a node that was killed (Kill).
var ErrKilled = errors.New("ft: node killed")

// NewJob creates the driver for one node. The snapshot store persists for
// the Job's lifetime, across every runtime incarnation.
func NewJob(cfg Config) *Job {
	if cfg.PEs <= 0 {
		cfg.PEs = 1
	}
	j := &Job{cfg: cfg, store: NewManager()}
	if reg := cfg.Runtime.Metrics; reg != nil {
		j.mRecoveries = reg.Counter("charmgo_ft_recoveries_total",
			"completed buddy-restore recoveries on this node")
		j.mRecoveryMS = reg.Histogram("charmgo_ft_recovery_ms",
			"detection-to-restore recovery latency in milliseconds")
		j.mLastMS = reg.Gauge("charmgo_ft_last_recovery_ms",
			"detection-to-restore latency of the most recent recovery")
		j.mHBSent = reg.Counter("charmgo_ft_heartbeats_sent_total",
			"failure-detector heartbeats sent")
		j.mHBMiss = reg.Counter("charmgo_ft_heartbeat_misses_total",
			"heartbeat suspicion ticks (peer silent past 2 intervals)")
		j.mDeaths = reg.Counter("charmgo_ft_node_deaths_total",
			"peers declared dead by the failure detector")
	}
	return j
}

func (j *Job) isKilled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.killed
}

// Run drives the node until the job exits cleanly (nil), the node is
// killed (ErrKilled), or recovery is impossible.
func (j *Job) Run() error {
	live := make([]int, j.cfg.Nodes)
	for i := range live {
		live[i] = i
	}
	for round := 0; ; round++ {
		if j.isKilled() {
			return ErrKilled
		}
		tp, err := j.cfg.Transport(round, live, j.cfg.Node)
		if err != nil {
			return fmt.Errorf("ft: node %d round %d transport: %w", j.cfg.Node, round, err)
		}
		if j.cfg.Wrap != nil {
			tp = j.cfg.Wrap(round, tp)
		}

		// OnDeath may still fire from late frames while a round is torn
		// down, so it must read its own immutable copy of the live set.
		roundLive := append([]int(nil), live...)
		var deadMu sync.Mutex
		var dead []int // original ids of peers declared dead this round
		det := NewDetector(tp, DetectorOptions{
			Interval:       j.cfg.Heartbeat,
			Timeout:        j.cfg.Suspicion,
			Trace:          j.cfg.Runtime.Trace,
			HeartbeatsSent: j.mHBSent,
			Misses:         j.mHBMiss,
			Deaths:         j.mDeaths,
			OnDeath: func(peer int) {
				deadMu.Lock()
				if peer >= 0 && peer < len(roundLive) {
					dead = append(dead, roundLive[peer])
				}
				deadMu.Unlock()
				j.mu.Lock()
				if j.failedAt.IsZero() {
					j.failedAt = time.Now()
				}
				rt := j.curRT
				j.mu.Unlock()
				if rt != nil {
					rt.Abort()
				}
			},
		})

		rc := j.cfg.Runtime
		rc.PEs = j.cfg.PEs
		rc.Transport = det
		rc.FT = j.store
		rt := core.NewRuntime(rc)
		if j.cfg.Register != nil {
			j.cfg.Register(rt)
		}
		j.mu.Lock()
		j.curRT = rt
		j.mu.Unlock()

		var runErr error
		if round == 0 {
			rt.Start(j.cfg.Fresh)
		} else {
			runErr = core.RestartFromMemory(rt, func(self *core.Chare, colls map[core.CID]core.Proxy, epoch int64) {
				j.recoveryDone(epoch)
				j.cfg.Restore(self, colls, epoch)
			})
		}

		j.mu.Lock()
		j.curRT = nil
		j.mu.Unlock()
		_ = det.Close() // also closes the chaos layer and the transport

		clean := rt.CleanExit()
		deadMu.Lock()
		died := append([]int(nil), dead...)
		deadMu.Unlock()

		switch {
		case j.isKilled():
			return ErrKilled
		case runErr != nil:
			return runErr
		case clean:
			return nil
		case len(died) == 0:
			return fmt.Errorf("ft: node %d round %d: runtime stopped with no clean exit and no detected failure", j.cfg.Node, round)
		}
		next := live[:0]
		for _, n := range live {
			gone := false
			for _, d := range died {
				if n == d {
					gone = true
					break
				}
			}
			if !gone {
				next = append(next, n)
			}
		}
		live = next
		sort.Ints(live)
		found := false
		for _, n := range live {
			if n == j.cfg.Node {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("ft: node %d was declared dead by its own detector (partition?)", j.cfg.Node)
		}
		if len(live) == 0 {
			return fmt.Errorf("ft: no survivors")
		}
	}
}

// recoveryDone stamps the detection-to-restore latency into the store and
// the metrics. Runs on the restored main chare, right before the
// application's Restore entry.
func (j *Job) recoveryDone(epoch int64) {
	j.mu.Lock()
	at := j.failedAt
	j.failedAt = time.Time{}
	j.mu.Unlock()
	var d time.Duration
	if !at.IsZero() {
		d = time.Since(at)
	}
	j.store.recordRecovery(d)
	if c := j.mRecoveries; c != nil {
		c.Inc()
	}
	if h := j.mRecoveryMS; h != nil {
		h.Observe(d.Milliseconds())
	}
	if g := j.mLastMS; g != nil {
		g.Set(d.Milliseconds())
	}
}
