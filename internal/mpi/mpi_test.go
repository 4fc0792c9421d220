package mpi

import (
	"testing"
	"testing/quick"
	"time"
)

func runWithTimeout(t *testing.T, n int, fn func(c *Comm)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(n, fn)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("mpi job did not finish (deadlock?)")
	}
}

func TestPingPong(t *testing.T) {
	runWithTimeout(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, "ping")
			v, src, tag := c.Recv(1, 8)
			if v != "pong" || src != 1 || tag != 8 {
				t.Errorf("got %v from %d tag %d", v, src, tag)
			}
		} else {
			v, _, _ := c.Recv(0, 7)
			if v != "ping" {
				t.Errorf("got %v", v)
			}
			c.Send(0, 8, "pong")
		}
	})
}

func TestWildcardRecv(t *testing.T) {
	runWithTimeout(t, 4, func(c *Comm) {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				v, src, _ := c.Recv(AnySource, AnyTag)
				if v != src*10 {
					t.Errorf("payload %v from %d", v, src)
				}
				seen[src] = true
			}
			if len(seen) != 3 {
				t.Errorf("saw %v", seen)
			}
		} else {
			c.Send(0, c.Rank(), c.Rank()*10)
		}
	})
}

func TestTagMatchingFIFO(t *testing.T) {
	runWithTimeout(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, "a")
			c.Send(1, 6, "b")
			c.Send(1, 5, "c")
		} else {
			v1, _, _ := c.Recv(0, 5)
			v2, _, _ := c.Recv(0, 5)
			v3, _, _ := c.Recv(0, 6)
			if v1 != "a" || v2 != "c" || v3 != "b" {
				t.Errorf("got %v %v %v", v1, v2, v3)
			}
		}
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	const n = 4
	runWithTimeout(t, n, func(c *Comm) {
		// ring halo exchange, the stencil pattern
		left := (c.Rank() + n - 1) % n
		right := (c.Rank() + 1) % n
		reqs := []*Request{
			c.Irecv(left, 1),
			c.Irecv(right, 2),
		}
		c.Isend(right, 1, c.Rank())
		c.Isend(left, 2, c.Rank())
		Waitall(reqs)
		if got := reqs[0].Wait(); got != left {
			t.Errorf("left value %v, want %d", got, left)
		}
		if got := reqs[1].Wait(); got != right {
			t.Errorf("right value %v, want %d", got, right)
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	const n = 5
	var before [n]bool
	runWithTimeout(t, n, func(c *Comm) {
		before[c.Rank()] = true
		c.Barrier()
		for r := 0; r < n; r++ {
			if !before[r] {
				t.Errorf("rank %d passed the barrier before rank %d entered", c.Rank(), r)
			}
		}
	})
}

func TestAllreduce(t *testing.T) {
	const n = 6
	runWithTimeout(t, n, func(c *Comm) {
		got := c.Allreduce(Sum, float64(c.Rank()))
		if got != float64(n*(n-1)/2) {
			t.Errorf("allreduce sum = %v", got)
		}
		gotMax := c.Allreduce(Max, c.Rank())
		if gotMax != n-1 {
			t.Errorf("allreduce max = %v", gotMax)
		}
		vec := c.Allreduce(Sum, []float64{1, float64(c.Rank())}).([]float64)
		if vec[0] != n || vec[1] != float64(n*(n-1)/2) {
			t.Errorf("vector allreduce = %v", vec)
		}
	})
}

func TestReduceRootOnly(t *testing.T) {
	runWithTimeout(t, 3, func(c *Comm) {
		v := c.Reduce(1, Max, 10-c.Rank())
		if c.Rank() == 1 {
			if v != 10 {
				t.Errorf("reduce max = %v", v)
			}
		} else if v != nil {
			t.Errorf("non-root got %v", v)
		}
	})
}

func TestBcast(t *testing.T) {
	runWithTimeout(t, 4, func(c *Comm) {
		var v any
		if c.Rank() == 2 {
			v = "payload"
		}
		got := c.Bcast(2, v)
		if got != "payload" {
			t.Errorf("bcast = %v", got)
		}
	})
}

func TestSendrecvRing(t *testing.T) {
	const n = 4
	runWithTimeout(t, n, func(c *Comm) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		got := c.Sendrecv(right, 3, c.Rank(), left, 3)
		if got != left {
			t.Errorf("sendrecv got %v, want %d", got, left)
		}
	})
}

func TestAllreduceMatchesSequential(t *testing.T) {
	// property: parallel allreduce of random int vectors equals the
	// sequential fold, for any rank count 1..8
	f := func(vals []int8, nRanks uint8) bool {
		n := int(nRanks)%8 + 1
		if len(vals) == 0 {
			vals = []int8{1}
		}
		want := 0
		contribs := make([]int, n)
		for r := 0; r < n; r++ {
			contribs[r] = int(vals[r%len(vals)])
			want += contribs[r]
		}
		okCh := make(chan bool, n)
		Run(n, func(c *Comm) {
			got := c.Allreduce(Sum, contribs[c.Rank()])
			okCh <- got == want
		})
		for i := 0; i < n; i++ {
			if !<-okCh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
