package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
	"unsafe"

	"scalana/internal/baseline"
	"scalana/internal/ppg"
	"scalana/internal/psg"
	"scalana/internal/store"
)

// defaultCacheBytes is the run cache bound when Config.CacheBytes is 0.
const defaultCacheBytes = 64 << 20

// entryOverhead charges each resident entry for its list element, map
// slot and key, on top of the value's own bytes.
const entryOverhead = 160

// cacheKind names what a cache entry holds.
type cacheKind uint8

const (
	// cacheRun is a stored set decoded and built into its PPG: what
	// detect reads, and /v1/sweep when one is resident.
	cacheRun cacheKind = iota
	// cacheSample is a stored set reduced to a baseline sample: what
	// watch and baseline warm-up read.
	cacheSample
)

// cacheKey addresses one derived value of one stored set. The compiled
// graph is part of the identity: VIDs are dense per graph instance, so
// a set decoded against one graph means nothing against another.
type cacheKey struct {
	graph *psg.Graph
	key   store.Key
	kind  cacheKind
}

// storedRun is one stored profile set, decoded and assembled.
type storedRun struct {
	pg      *ppg.Graph
	elapsed float64
}

// cacheValue holds the one kind its key names. Both kinds are immutable
// once filled; every reader shares them.
type cacheValue struct {
	run *storedRun
	smp *baseline.Sample
}

// bytes is the resident size the cache charges for the value.
func (v cacheValue) bytes() int64 {
	if v.run != nil {
		return int64(unsafe.Sizeof(*v.run)) + v.run.pg.Bytes()
	}
	return int64(unsafe.Sizeof(*v.smp)) + int64(len(v.smp.Hash)) +
		int64(cap(v.smp.Values))*int64(unsafe.Sizeof(float64(0)))
}

type cacheEntry struct {
	key   cacheKey
	val   cacheValue
	bytes int64
}

// runCache holds derived values of stored sets, bounded by bytes with
// least-recently-used eviction across both kinds. Stored sets never
// change under their hash, so entries never go stale; they leave only
// under the bound or an explicit evictApp. Concurrent misses on one key
// fill once, through the same single-flight type the request path uses.
type runCache struct {
	// limit is the byte bound. A value larger than it is never kept,
	// so a bound below every entry's size makes every lookup fill
	// afresh.
	limit int64
	fills flightGroup[cacheKey, cacheValue]

	mu      sync.Mutex
	lru     list.List // of *cacheEntry, most recently used first
	m       map[cacheKey]*list.Element
	bytes   int64
	samples int // resident cacheSample entries

	hits, misses, evictions atomic.Int64
}

func newRunCache(limit int64) *runCache {
	if limit == 0 {
		limit = defaultCacheBytes
	}
	return &runCache{limit: limit, m: map[cacheKey]*list.Element{}}
}

// get returns the value for k, running fill on a miss. Every lookup
// counts as exactly one hit or one miss: a miss is a lookup that ran
// fill itself or joined a fill that failed, so only callers that join
// a successful concurrent fill count as hits.
func (c *runCache) get(k cacheKey, fill func() (cacheValue, error)) (cacheValue, error) {
	if v, ok := c.peek(k); ok {
		c.hits.Add(1)
		return v, nil
	}
	filled := false
	v, err := c.fills.Do(k, nil, func() (cacheValue, error) {
		// A fill that finished between peek and Do has published already.
		if v, ok := c.peek(k); ok {
			return v, nil
		}
		filled = true
		v, err := fill()
		if err == nil {
			c.add(k, v)
		}
		return v, err
	})
	if filled || err != nil {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return v, err
}

// peek returns a resident value and marks it recently used, without
// counting a lookup.
func (c *runCache) peek(k cacheKey) (cacheValue, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return cacheValue{}, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// add makes v resident, then evicts from the cold end until the cache
// fits its bound again. A value larger than the whole bound is not
// kept.
func (c *runCache) add(k cacheKey, v cacheValue) {
	size := v.bytes() + entryOverhead
	if size > c.limit {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return
	}
	c.m[k] = c.lru.PushFront(&cacheEntry{key: k, val: v, bytes: size})
	c.bytes += size
	if k.kind == cacheSample {
		c.samples++
	}
	for c.bytes > c.limit {
		c.remove(c.lru.Back())
	}
}

// remove drops one resident entry. Caller holds c.mu.
func (c *runCache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.m, e.key)
	c.bytes -= e.bytes
	if e.key.kind == cacheSample {
		c.samples--
	}
	c.evictions.Add(1)
}

// evictApp drops every resident entry of one app, both kinds, and
// returns how many samples it dropped.
func (c *runCache) evictApp(app string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if k := el.Value.(*cacheEntry).key; k.key.App == app {
			if k.kind == cacheSample {
				n++
			}
			c.remove(el)
		}
		el = next
	}
	return n
}

// residentBytes and sampleCount snapshot the cache's occupancy.
func (c *runCache) residentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

func (c *runCache) sampleCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.samples
}
