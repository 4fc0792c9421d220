package core

import (
	"fmt"
	"sync"
	"testing"
)

func TestLocCachePutGet(t *testing.T) {
	lc := newLocCache()
	for i := 0; i < 10000; i++ {
		lc.put(CID(i%7), fmt.Sprintf("k%d", i), PE(i%13))
	}
	for i := 0; i < 10000; i++ {
		pe, ok := lc.get(CID(i%7), []byte(fmt.Sprintf("k%d", i)))
		if !ok || pe != PE(i%13) {
			t.Fatalf("get(%d, k%d) = %d,%v", i%7, i, pe, ok)
		}
	}
	if _, ok := lc.get(99, []byte("absent")); ok {
		t.Fatal("get of an absent key reported a hit")
	}
}

func TestLocCacheMergePublishes(t *testing.T) {
	lc := newLocCache()
	// Enough keys that every shard crosses the merge threshold at least once:
	// the epoch counters prove the lock-free published maps took over from the
	// dirty overlays.
	const n = locShards * (locMergeMin + 8)
	for i := 0; i < n; i++ {
		lc.put(CID(1), fmt.Sprintf("key-%d", i), PE(i%11))
	}
	if epochSum(lc) == 0 {
		t.Fatal("no shard ever merged its dirty overlay into the published map")
	}
	for i := 0; i < n; i++ {
		if pe, ok := lc.get(CID(1), []byte(fmt.Sprintf("key-%d", i))); !ok || pe != PE(i%11) {
			t.Fatalf("post-merge get(key-%d) = %d,%v", i, pe, ok)
		}
	}
}

func TestLocCacheOverwrite(t *testing.T) {
	lc := newLocCache()
	lc.put(CID(3), "x", 4)
	lc.put(CID(3), "x", 9)
	if pe, ok := lc.get(CID(3), []byte("x")); !ok || pe != 9 {
		t.Fatalf("overwrite lost: got %d,%v want 9,true", pe, ok)
	}
}

func TestLocCacheScrubRange(t *testing.T) {
	lc := newLocCache()
	const n = locShards * (locMergeMin + 4) // force merges so published maps hold entries
	for i := 0; i < n; i++ {
		lc.put(CID(2), fmt.Sprintf("s%d", i), PE(i%16))
	}
	lc.scrubRange(4, 8) // retire PEs [4,8)
	for i := 0; i < n; i++ {
		pe, ok := lc.get(CID(2), []byte(fmt.Sprintf("s%d", i)))
		want := PE(i % 16)
		if want >= 4 && want < 8 {
			if ok {
				t.Fatalf("s%d still cached at retired PE %d", i, pe)
			}
		} else if !ok || pe != want {
			t.Fatalf("s%d outside the scrub range lost: got %d,%v want %d", i, pe, ok, want)
		}
	}
	// Scrubbed keys can be re-cached at a surviving PE.
	lc.put(CID(2), "s4", 1)
	if pe, ok := lc.get(CID(2), []byte("s4")); !ok || pe != 1 {
		t.Fatalf("re-cache after scrub: got %d,%v", pe, ok)
	}
}

func TestLocCacheConcurrent(t *testing.T) {
	lc := newLocCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				key := fmt.Sprintf("c%d", i%512)
				lc.put(CID(w), key, PE(i%7))
				if pe, ok := lc.get(CID(w), []byte(key)); ok && pe > 7 {
					t.Errorf("garbage read: %d", pe)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// epochSum returns the total number of shard republishes.
func epochSum(lc *locCache) uint64 {
	var n uint64
	for i := range lc.shards {
		n += lc.shards[i].epoch.Load()
	}
	return n
}
