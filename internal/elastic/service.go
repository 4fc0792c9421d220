package elastic

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"charmgo/internal/core"
	"charmgo/internal/ft"
	"charmgo/internal/metrics"
	"charmgo/internal/transport"
)

// Shard is the kvservice keyed chare: one element owns one bucket of the
// keyspace. Plain migratable state — the membership layer moves shards
// between nodes while requests are in flight.
type Shard struct {
	core.Chare
	Data map[string]string
}

func init() {
	core.Bind[Shard](
		core.EM1R((*Shard).Get),
		core.EM0((*Shard).Init),
		core.EM0R((*Shard).Len),
		core.EM2R((*Shard).Put),
	)
}

// Init makes the bucket ready before the first request.
func (s *Shard) Init() { s.Data = map[string]string{} }

// Put stores a key and returns the bucket's size (a non-nil reply, so the
// front end can distinguish success from a dropped request).
func (s *Shard) Put(key, val string) int {
	s.Data[key] = val
	return len(s.Data)
}

// Get returns the stored value (empty string when absent).
func (s *Shard) Get(key string) string { return s.Data[key] }

// Len reports the bucket's key count (census/debugging).
func (s *Shard) Len() int { return len(s.Data) }

// ServiceConfig configures an in-process kvservice cluster.
type ServiceConfig struct {
	// Nodes is the provisioned slot count; PEs the schedulers per node.
	Nodes, PEs int
	// Shards is the keyed array's element count (default 4×PEs×Nodes).
	Shards int
	// InitialActive lists the nodes active at startup (must include 0).
	InitialActive []int
	// Metrics, when non-nil, receives the front end's admission instruments
	// and node 0's runtime instruments.
	Metrics *metrics.Registry
	// Gate tunes admission control; Depth defaults to node 0's mailbox
	// depth plus the front end's in-flight count.
	Gate GateOptions
	// Detectors arms an ft failure detector on every node, kept in lockstep
	// with the membership view by a Manager — a planned leave must not trip
	// it. FalsePositives reports any that fired.
	Detectors bool
	// HeartbeatInterval / SuspicionTimeout tune the detectors
	// (defaults 20ms / 1s).
	HeartbeatInterval time.Duration
	SuspicionTimeout  time.Duration
	// RequestTimeout bounds each Put/Get (default 20s).
	RequestTimeout time.Duration
}

// Service is the kvservice serving harness: an in-process multi-node
// cluster hosting a Shard array behind a request-routing front end with
// admission control. Requests may be issued from any goroutine.
type Service struct {
	cfg   ServiceConfig
	nw    *transport.MemNetwork
	rts   []*core.Runtime
	dets  []*ft.Detector
	mgrs  []*Manager
	shard []core.Proxy // one per Shard element, built at boot
	gate  *Gate

	inflight atomic.Int64
	deaths   atomic.Int64 // detector false positives (should stay 0)
	timers   sync.Pool    // stopped, drained *time.Timer (request deadlines)
	wg       sync.WaitGroup
	closed   sync.Once
}

// bootTimeout bounds NewService's wait for the cluster's Shard array. It is
// not RequestTimeout, which bounds requests: a service may answer within
// milliseconds and still take longer than that to boot on a loaded machine.
const bootTimeout = 20 * time.Second

// NewService boots the cluster and blocks until the Shard array exists.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.PEs <= 0 {
		cfg.PEs = 2
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4 * cfg.PEs * cfg.Nodes
	}
	if cfg.InitialActive == nil {
		for i := 0; i < cfg.Nodes; i++ {
			cfg.InitialActive = append(cfg.InitialActive, i)
		}
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 20 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 20 * time.Millisecond
	}
	if cfg.SuspicionTimeout <= 0 {
		cfg.SuspicionTimeout = time.Second
	}
	s := &Service{cfg: cfg, nw: transport.NewMemNetwork(cfg.Nodes)}
	s.rts = make([]*core.Runtime, cfg.Nodes)
	s.dets = make([]*ft.Detector, cfg.Nodes)
	s.mgrs = make([]*Manager, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		rc := core.Config{
			PEs:           cfg.PEs,
			Transport:     s.nw.Endpoint(i),
			InitialActive: cfg.InitialActive,
		}
		if cfg.Detectors {
			d := ft.NewDetector(s.nw.Endpoint(i), ft.DetectorOptions{
				Interval: cfg.HeartbeatInterval,
				Timeout:  cfg.SuspicionTimeout,
				OnDeath:  func(peer int) { s.deaths.Add(1) },
			})
			s.dets[i] = d
			rc.Transport = d
		}
		// Only node 0 carries the metrics registry.
		if i == 0 {
			rc.Metrics = cfg.Metrics
		}
		s.rts[i] = core.NewRuntime(rc)
		s.rts[i].Register(&Shard{})
		if cfg.Detectors {
			s.mgrs[i] = NewManager(s.rts[i], s.dets[i])
		}
	}
	gopts := cfg.Gate
	if gopts.Depth == nil {
		rt0 := s.rts[0]
		gopts.Depth = func() int { return rt0.MailboxDepth() + int(s.inflight.Load()) }
	}
	s.gate = NewGate(cfg.Metrics, gopts)

	ready := make(chan core.Proxy, 1)
	shards := cfg.Shards
	for i := 0; i < cfg.Nodes; i++ {
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			s.rts[i].Start(func(self *core.Chare) {
				ready <- self.NewArray(&Shard{}, []int{shards})
				self.Wait("1 == 2") // park; Close ends the job via Exit
			})
		}(i)
	}
	select {
	case arr := <-ready:
		// Proxy.At copies the index: call would pay that per request.
		s.shard = make([]core.Proxy, shards)
		for i := range s.shard {
			s.shard[i] = arr.At(i)
		}
	case <-time.After(bootTimeout):
		s.Close()
		return nil, errors.New("elastic: service cluster did not come up")
	}
	return s, nil
}

// shardOf routes a key to its shard element.
func (s *Service) shardOf(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(s.cfg.Shards))
}

// call routes one admitted request and waits for its reply.
func (s *Service) call(shard int, method string, args ...any) (any, error) {
	if err := s.gate.Admit(); err != nil {
		return nil, err
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	ch, ref := s.shard[shard].ExtCall(method, args...)
	// The deadline timer is pooled: go.mod predates go 1.23, so a time.After
	// per request would sit in the timer heap for the whole RequestTimeout —
	// millions of live timers at the rate this path serves.
	t, _ := s.timers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(s.cfg.RequestTimeout)
	} else {
		t.Reset(s.cfg.RequestTimeout)
	}
	select {
	case v := <-ch:
		if !t.Stop() {
			select { // fired while the reply arrived: drain before reuse
			case <-t.C:
			default:
			}
		}
		s.timers.Put(t)
		return v, nil
	case <-t.C:
		s.timers.Put(t)
		s.rts[0].DropExtFuture(ref)
		return nil, fmt.Errorf("elastic: %s on shard %d timed out", method, shard)
	}
}

// Put stores a key through the front end.
func (s *Service) Put(key, val string) error {
	_, err := s.call(s.shardOf(key), "Put", key, val)
	return err
}

// Get reads a key through the front end.
func (s *Service) Get(key string) (string, error) {
	v, err := s.call(s.shardOf(key), "Get", key)
	if err != nil {
		return "", err
	}
	str, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("elastic: Get returned %T", v)
	}
	return str, nil
}

// Join admits a provisioned node into the cluster; shards rebalance onto it.
func (s *Service) Join(node int) error {
	if node < 0 || node >= s.cfg.Nodes {
		return fmt.Errorf("elastic: bad node %d", node)
	}
	return s.rts[node].ElasticJoin(s.cfg.RequestTimeout)
}

// Leave drains a node's shards out, retires it from the view, settles its
// mailboxes, announces the planned departure to the failure detectors, and
// shuts the node down — all without losing a request.
func (s *Service) Leave(node int) error {
	if node < 0 || node >= s.cfg.Nodes {
		return fmt.Errorf("elastic: bad node %d", node)
	}
	if err := s.rts[node].ElasticLeave(s.cfg.RequestTimeout); err != nil {
		return err
	}
	if err := s.rts[node].ElasticSettle(s.cfg.RequestTimeout); err != nil {
		return err
	}
	if m := s.mgrs[node]; m != nil {
		m.Depart()
	}
	s.rts[node].Exit() // retired: exits alone, the job keeps running
	return nil
}

// ActiveNodes returns the current membership.
func (s *Service) ActiveNodes() []int { return s.rts[0].ActiveNodes() }

// Shards returns the keyed array's element count.
func (s *Service) Shards() int { return s.cfg.Shards }

// Gate returns the front end's admission gate.
func (s *Service) Gate() *Gate { return s.gate }

// Runtime returns node i's runtime.
func (s *Service) Runtime(i int) *core.Runtime { return s.rts[i] }

// FalsePositives reports how many times a failure detector declared a peer
// dead. Planned joins and leaves must keep this at zero.
func (s *Service) FalsePositives() int64 { return s.deaths.Load() }

// Close shuts the whole cluster down.
func (s *Service) Close() {
	s.closed.Do(func() {
		for _, rt := range s.rts {
			rt.Exit()
		}
		s.wg.Wait()
		for i := range s.rts {
			if d := s.dets[i]; d != nil {
				_ = d.Close()
			} else {
				_ = s.nw.Endpoint(i).Close()
			}
		}
	})
}
