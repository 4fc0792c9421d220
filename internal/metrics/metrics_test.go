package metrics

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := reg.Gauge("test_depth", "a gauge")
	g.Set(5)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
	h := reg.Histogram("test_sizes", "a histogram")
	for _, v := range []int64{0, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1006 {
		t.Errorf("histogram count/sum = %d/%d, want 5/1006", h.Count(), h.Sum())
	}
	var total int64
	for _, b := range h.Buckets() {
		total += b
	}
	if total != 5 {
		t.Errorf("bucket total = %d, want 5", total)
	}
}

func TestRegisterIdempotentByName(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("same", "h")
	b := reg.Counter("same", "h")
	if a != b {
		t.Error("re-registering a counter must return the same instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge over a counter must panic")
		}
	}()
	reg.Gauge("same", "h")
}

// TestGaugeFuncReplaced: the last registration of a GaugeFunc name is the
// one scrapes and Lookup read.
func TestGaugeFuncReplaced(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("live", "h", func() int64 { return 1 })
	reg.GaugeFunc("live", "h", func() int64 { return 2 })
	var sb strings.Builder
	reg.WriteText(&sb)
	if !strings.Contains(sb.String(), "live 2\n") || strings.Contains(sb.String(), "live 1\n") {
		t.Errorf("exposition after re-registration:\n%s", sb.String())
	}
	if g, ok := reg.Lookup("live").(interface{ Value() int64 }); !ok || g.Value() != 2 {
		t.Errorf("Lookup(live) = %v", reg.Lookup("live"))
	}
}

func TestWriteTextExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("charmgo_sends_total", "messages sent").Add(3)
	reg.Gauge("charmgo_mailbox_depth{pe=\"0\"}", "queued messages").Set(2)
	reg.GaugeFunc("charmgo_live", "liveness", func() int64 { return 1 })
	h := reg.Histogram("charmgo_batch_bytes", "flush sizes")
	h.Observe(100)
	h.Observe(5000)

	var sb strings.Builder
	reg.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP charmgo_sends_total messages sent",
		"charmgo_sends_total 3",
		"charmgo_mailbox_depth{pe=\"0\"} 2",
		"charmgo_live 1",
		"charmgo_batch_bytes_count 2",
		"charmgo_batch_bytes_sum 5100",
		"charmgo_batch_bytes_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative: the largest le bucket equals count.
	lines := strings.Split(out, "\n")
	var last string
	for _, l := range lines {
		if strings.HasPrefix(l, "charmgo_batch_bytes_bucket") {
			last = l
		}
	}
	if !strings.HasSuffix(last, " 2") {
		t.Errorf("last cumulative bucket %q, want count 2", last)
	}
}

// TestRegistryConcurrentHammer drives registration and updates from many
// goroutines; run under -race this checks the lock-free update paths.
func TestRegistryConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const workers = 16
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("hammer_total", "shared")
			g := reg.Gauge(fmt.Sprintf("hammer_gauge{w=\"%d\"}", w%4), "sharded")
			h := reg.Histogram("hammer_hist", "shared")
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i))
				if i%500 == 0 {
					var sb strings.Builder
					reg.WriteText(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("hammer_total", "").Value(); got != workers*iters {
		t.Errorf("hammer counter = %d, want %d", got, workers*iters)
	}
	if got := reg.Histogram("hammer_hist", "").Count(); got != workers*iters {
		t.Errorf("hammer histogram count = %d, want %d", got, workers*iters)
	}
}

// TestUpdatePrimitivesZeroAlloc pins the hot-path instruments at zero
// allocations per update, the property that lets the runtime call them
// unconditionally once registered.
func TestUpdatePrimitivesZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("z_total", "")
	g := reg.Gauge("z_gauge", "")
	h := reg.Histogram("z_hist", "")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(77) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
}

type fakeTrace struct{}

func (fakeTrace) WriteJSON(w io.Writer) error {
	_, err := io.WriteString(w, `{"events":[]}`)
	return err
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "help").Add(9)
	srv, err := Serve("127.0.0.1:0", reg, fakeTrace{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "served_total 9") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/trace"); code != 200 || !strings.Contains(body, `"events"`) {
		t.Errorf("/trace = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestServeNilTrace(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/trace without tracer = %d, want 404", resp.StatusCode)
	}
}
