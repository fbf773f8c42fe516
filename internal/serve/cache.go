// The compiled-program cache: sharded, content-hash-keyed, LRU per
// shard, singleflight on cold misses. Keys are the SHA-256 of the
// request source (plus a variant tag for auto-parallelized entries:
// the serial program and each planned (auto, width) variant are
// separate entries with separate compiled code), so byte-identical
// programs share one checked AST and one set of compiled code
// regardless of which client sent them; the shard is picked from the
// hash's first byte, so hot keys spread across locks instead of
// serializing on one.
package serve

import (
	"context"
	"crypto/sha256"
	"hash"
	"strconv"
	"sync"

	"repro/internal/interp"
)

// centry is one cache slot. ready is closed by the goroutine that won
// the insert race once cp/err are final; every other goroutine —
// concurrent cold requests for the same source included — blocks on
// ready instead of compiling again (the singleflight). The entry owns
// a pinned interp.CompiledProgram, not just the AST: interp keeps no
// code cache of its own (interp.New builds every call), so the handle
// held here is the only reason a hit never recompiles. The prev/next
// links are the shard's intrusive LRU list.
type centry struct {
	key   [32]byte
	ready chan struct{}
	cp    *interp.CompiledProgram
	// plan is the auto-parallelization report for (auto, width)
	// variant entries, already in wire form — hot auto requests return
	// it without re-planning or re-rendering, and every reply of the
	// variant shares it, so it is read-only. nil for serial entries.
	plan *PlanSummary
	err  error

	prev, next *centry
}

// cacheShard is one lock's worth of the cache: a key→entry map plus an
// LRU list threaded through the entries (front = most recent). The
// counters are guarded by mu and aggregated by cacheStats.
type cacheShard struct {
	mu      sync.Mutex
	entries map[[32]byte]*centry
	// head/tail of the LRU list (head = most recently used).
	head, tail *centry

	hits, misses, evictions, compiles int64
}

func (sh *cacheShard) unlink(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cacheShard) pushFront(e *centry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

type cache struct {
	shards   []*cacheShard
	perShard int
}

func newCache(entries, shards int) *cache {
	perShard := (entries + shards - 1) / shards
	if perShard < 1 {
		perShard = 1
	}
	c := &cache{shards: make([]*cacheShard, shards), perShard: perShard}
	for i := range c.shards {
		c.shards[i] = &cacheShard{entries: make(map[[32]byte]*centry)}
	}
	return c
}

// serialKey is the cache key of a source's untransformed program.
// Both key families hash a variant tag before the source bytes: with
// an untagged serial key, a request whose *source text* began with
// another key family's tag would collide with that family's slot
// (e.g. a serial POST of "auto:16\x00" + P poisoning P's auto
// variant, negative cache included).
func serialKey(source string) [32]byte {
	return variantKey("serial", source)
}

// autoKey is the cache key of a source's auto-parallelized variant at
// one strip width: each (auto, width) pair is its own slot.
func autoKey(source string, width int) [32]byte {
	return variantKey("auto:"+strconv.Itoa(width), source)
}

// keyHasher is a SHA-256 state plus the scratch a source is fed
// through: hash.Hash takes bytes, and converting a source to bytes
// would copy all of it to the heap on every request.
type keyHasher struct {
	h   hash.Hash
	buf [1024]byte
}

var keyHashers = sync.Pool{New: func() any { return &keyHasher{h: sha256.New()} }}

// variantKey is SHA-256 of tag, NUL, the source's length in decimal,
// NUL, the source.
func variantKey(tag, source string) (key [32]byte) {
	kh := keyHashers.Get().(*keyHasher)
	kh.h.Reset()
	p := append(kh.buf[:0], tag...)
	p = append(p, 0)
	p = strconv.AppendInt(p, int64(len(source)), 10)
	kh.h.Write(append(p, 0))
	for len(source) > 0 {
		n := copy(kh.buf[:], source)
		kh.h.Write(kh.buf[:n])
		source = source[n:]
	}
	copy(key[:], kh.h.Sum(kh.buf[:0]))
	keyHashers.Put(kh)
	return key
}

// get returns the pinned compiled program under key, building it with
// build on a cold miss. cached reports whether the program was already
// resident (including joining an in-flight build — the caller did no
// compile work either way). Build errors are cached too: a client
// retrying a broken program in a loop stays on the hot path. The plan
// is whatever the build returned (the auto-parallelization report for
// auto variants, nil for serial entries).
func (c *cache) get(ctx context.Context, key [32]byte, build func() (*interp.CompiledProgram, *PlanSummary, error)) (cp *interp.CompiledProgram, plan *PlanSummary, cached bool, err error) {
	sh := c.shards[int(key[0])%len(c.shards)]

	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.unlink(e)
		sh.pushFront(e)
		sh.hits++
		sh.mu.Unlock()
		select {
		case <-e.ready:
			return e.cp, e.plan, true, e.err
		case <-ctx.Done():
			return nil, nil, true, ctx.Err()
		}
	}
	e := &centry{key: key, ready: make(chan struct{})}
	sh.entries[key] = e
	sh.pushFront(e)
	sh.misses++
	sh.compiles++
	// Evict beyond capacity, least-recently-used first. The entry just
	// inserted is at the front, so it can never evict itself; evicting
	// another in-flight entry is safe — its waiters hold the pointer
	// and its builder closes ready regardless of cache membership.
	for len(sh.entries) > c.perShard {
		old := sh.tail
		sh.unlink(old)
		delete(sh.entries, old.key)
		sh.evictions++
	}
	sh.mu.Unlock()

	e.cp, e.plan, e.err = build()
	close(e.ready)
	return e.cp, e.plan, false, e.err
}

// CacheStats is the cache section of Stats.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Compiles counts front-end builds (parse + check + compile IR +
	// bytecode). The hot-path contract is that it tracks misses, never
	// hits: TestHotPathZeroCompileWork pins it together with
	// interp.CompileCount.
	Compiles int64 `json:"compiles"`
	Entries  int   `json:"entries"`
	Shards   int   `json:"shards"`
	Capacity int   `json:"capacity"`
}

func (c *cache) stats() CacheStats {
	st := CacheStats{Shards: len(c.shards), Capacity: c.perShard * len(c.shards)}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Compiles += sh.compiles
		st.Entries += len(sh.entries)
		sh.mu.Unlock()
	}
	return st
}
