package coherence

import (
	"math/rand"
	"testing"

	"flashfc/internal/timing"
)

// Invalidate leaves a line's address in the eviction order, and eviction
// skips addresses that are no longer resident. A line invalidated and then
// reinstalled is therefore evicted at its *first* position, ahead of lines
// installed before its reinstall. This may be a modelling quirk (a true
// FIFO would evict it last), but changing it changes what is simulated, so
// this test pins today's order byte for byte.
func TestCacheReinstallEvictedAtFirstPosition(t *testing.T) {
	c := NewCache(3 * timing.LineSize)
	const a, b, d, e, f, g = 0, 128, 256, 384, 512, 640
	c.Install(a, CacheShared, 1)
	c.Install(b, CacheShared, 2)
	c.Install(d, CacheShared, 3)
	c.Invalidate(a)
	c.Install(a, CacheExclusive, 4) // reinstalled: now the newest line
	var victims []Addr
	for _, x := range []Addr{e, f, g, a + 768} {
		v, _, ok := c.Install(x, CacheShared, 5)
		if !ok {
			t.Fatalf("installing %v into a full cache evicted nothing", x)
		}
		victims = append(victims, v)
	}
	want := []Addr{a, b, d, e}
	for i := range want {
		if victims[i] != want[i] {
			t.Fatalf("eviction order %v, want %v", victims, want)
		}
	}
}

// refCache is the eviction order as a plain head-sliced queue, the form
// Cache had before it reclaimed its consumed prefix in place.
type refCache struct {
	lines map[Addr]CacheLine
	fifo  []Addr
}

func (r *refCache) install(a Addr, st CacheState, tok uint64, capacity int) (Addr, CacheLine, bool) {
	if _, ok := r.lines[a]; ok {
		r.lines[a] = CacheLine{st, tok}
		return 0, CacheLine{}, false
	}
	var victim Addr
	var ev CacheLine
	evicted := false
	if len(r.lines) >= capacity {
		for len(r.fifo) > 0 {
			v := r.fifo[0]
			r.fifo = r.fifo[1:]
			if l, ok := r.lines[v]; ok {
				delete(r.lines, v)
				victim, ev, evicted = v, l, true
				break
			}
		}
	}
	r.lines[a] = CacheLine{st, tok}
	r.fifo = append(r.fifo, a)
	return victim, ev, evicted
}

// A long random mix of installs, invalidations and flushes must evict the
// same lines in the same order as the head-sliced queue, through every
// in-place compaction of the eviction order.
func TestCacheEvictionOrderMatchesQueueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const capacity = 16
	c := NewCache(capacity * timing.LineSize)
	ref := &refCache{lines: map[Addr]CacheLine{}}
	for i := 0; i < 20000; i++ {
		a := Addr(rng.Intn(3*capacity)) * timing.LineSize
		switch r := rng.Intn(100); {
		case r < 70:
			st, tok := CacheState(rng.Intn(2)), uint64(i)
			gv, gl, gok := c.Install(a, st, tok)
			wv, wl, wok := ref.install(a, st, tok, capacity)
			if gv != wv || gl != wl || gok != wok {
				t.Fatalf("op %d: Install(%v) = %v %+v %v, want %v %+v %v", i, a, gv, gl, gok, wv, wl, wok)
			}
		case r < 99:
			c.Invalidate(a)
			delete(ref.lines, a)
		default:
			c.Flush()
			ref.lines, ref.fifo = map[Addr]CacheLine{}, nil
		}
		if i%1000 == 0 {
			// A clone carries the live order only, and evicts alike.
			c = c.Clone()
		}
	}
}
