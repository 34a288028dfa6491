package engine

import (
	"container/list"
	"math/bits"
	"sync"

	"repro/internal/mcast"
	"repro/internal/obs"
	"repro/internal/packed"
	"repro/internal/perm"
)

// PlanKind records which setup path produced a routing plan.
type PlanKind int

const (
	// PlanSelfRouted marks a plan whose states were decided by the
	// network's own destination-tag logic (the permutation is in F(n),
	// the paper's O(log N) setup-free path).
	PlanSelfRouted PlanKind = iota
	// PlanLooped marks a plan computed by the classic looping algorithm
	// (core.Network.SetupInto) because the permutation is outside F(n).
	PlanLooped
	// PlanMulticast marks a copy-network plan compiled from a fan-out
	// mapping: distribute B(n), copy ladder, permute B(n).
	PlanMulticast
)

func (k PlanKind) String() string {
	switch k {
	case PlanSelfRouted:
		return "self-routed"
	case PlanLooped:
		return "looped"
	case PlanMulticast:
		return "multicast"
	}
	return "unknown"
}

// Plan is a fully resolved switch setting for one permutation. Once
// cached, serving the same permutation again needs neither the looping
// algorithm nor a self-routing pass: the setting pins every switch, so
// the data pass is a wire-speed traversal whose end-to-end effect is
// exactly the plan's destination vector.
//
// Every plan kind stores its switch setting and the vector it realizes
// at their own size: the setting as the stage-major bit words the
// flight recorder diffs, the vector at the width package packed picks
// for its largest entry. A unicast plan's setting is the N log N − N/2
// bits the setup kernels write (core.Network.SettingInto) and its
// vector the destination vector (two bytes an entry at N=1024). A
// multicast plan's setting is the copy network's three phases as the
// mcast compiler writes them (736 B at N=256) and its vector the
// mapping, entry out holding m[out]+1 so an idle output stores 0.
type Plan struct {
	Kind    PlanKind
	setting []uint64 // switch setting realizing dest, packed
	dest    []byte   // the permutation (input i -> dest[i]) or mapping the plan realizes, packed by packVec
	key     uint64   // hashPerm or hashMapping of dest: the cache key
}

// packVec stores v[i]+bias at the narrowest width that holds the
// largest possible entry, len(v)−1+bias: bias 0 for a permutation, 1
// for a mapping.
func packVec(v []int, bias int) []byte {
	w := packed.Width(uint32(len(v) - 1 + bias))
	raw := make([]byte, w*len(v))
	for i, x := range v {
		packed.Put(raw, w, i, uint32(x+bias))
	}
	return raw
}

// realizes reports whether the plan is the unicast plan for d: a
// full-vector compare, so a hash collision reads as a miss.
func (pl *Plan) realizes(d []int) bool {
	return pl.Kind != PlanMulticast && packed.Equal(pl.dest, packed.Width(uint32(len(d)-1)), d)
}

// realizesMapping is realizes for the multicast plan of m.
func (pl *Plan) realizesMapping(m mcast.Mapping) bool {
	w := packed.Width(uint32(len(m)))
	if pl.Kind != PlanMulticast || len(pl.dest) != w*len(m) {
		return false
	}
	for out, src := range m {
		if packed.At(pl.dest, w, out) != uint32(src+1) {
			return false
		}
	}
	return true
}

// hashPerm returns the 64-bit plan-cache key for a destination vector:
// a word-at-a-time FNV-1a variant. Collisions are tolerated — lookups
// always confirm the full permutation — so speed matters more than
// cryptographic strength.
func hashPerm(p perm.Perm) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, d := range p {
		h ^= uint64(d) + 1 // +1 so a leading 0 perturbs the state
		h *= prime64
	}
	return h
}

// hashMapping keys a multicast mapping in the same cache. The offset
// basis differs from hashPerm so a mapping that happens to be a
// permutation does not land on the unicast plan for the same vector
// (the two have different orientations), and entries may be -1.
func hashMapping(m mcast.Mapping) uint64 {
	const offset64 = 14695981039346656037 ^ 0x9e3779b97f4a7c15
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, d := range m {
		h ^= uint64(d + 2) // -1 maps to 1, sources to src+2
		h *= prime64
	}
	return h
}

// planCache is a sharded LRU cache of routing plans. Each shard owns an
// independent lock, recency list, and capacity slice, so concurrent
// callers rarely contend on the same mutex.
type planCache struct {
	shards []cacheShard
	// shift is 64 − log2(len(shards)): key>>shift, a key's top bits, is
	// its shard index. The low bits will not do: every hashPerm
	// key of a permutation of N >= 4 entries is odd, because
	// FNV-1a's odd multiplier keeps bit 0 and XOR-ing in d+1 flips it
	// once per even d, N/2 times. The last multiply mixes every bit
	// into the top ones.
	shift      uint
	evictions  *obs.Counter
	collisions *obs.Counter
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used; values are *Plan
	items map[uint64]*list.Element // key -> element in ll
}

// newPlanCache builds a cache holding about `capacity` plans across
// `shards` shards (rounded up to a power of two, each shard holding at
// least one plan). evictions is incremented once per displaced plan;
// collisions once per lookup whose 64-bit key matched a cached plan for
// a different permutation.
func newPlanCache(capacity, shards int, evictions, collisions *obs.Counter) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	c := &planCache{
		shards:     make([]cacheShard, n),
		shift:      uint(65 - bits.Len(uint(n))),
		evictions:  evictions,
		collisions: collisions,
	}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[uint64]*list.Element, perShard)
	}
	return c
}

// shard returns the shard that holds key. A one-shard cache shifts by
// 64, which Go defines as 0.
func (c *planCache) shard(key uint64) *cacheShard {
	return &c.shards[key>>c.shift]
}

// get returns the cached plan for d, or nil on a miss. The stored
// permutation is compared in full, so a hash collision reads as a miss
// rather than a wrong answer.
func (c *planCache) get(key uint64, d []int) *Plan {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.items[key]
	if !ok {
		return nil
	}
	pl := e.Value.(*Plan)
	if !pl.realizes(d) {
		if c.collisions != nil {
			c.collisions.Add(1)
		}
		return nil
	}
	sh.ll.MoveToFront(e)
	return pl
}

// getMapping is get for multicast plans: the stored mapping is
// compared in full, and a unicast plan under the same key reads as a
// collision miss.
func (c *planCache) getMapping(key uint64, m mcast.Mapping) *Plan {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.items[key]
	if !ok {
		return nil
	}
	pl := e.Value.(*Plan)
	if !pl.realizesMapping(m) {
		if c.collisions != nil {
			c.collisions.Add(1)
		}
		return nil
	}
	sh.ll.MoveToFront(e)
	return pl
}

// put inserts (or replaces) a plan and evicts the shard's least
// recently used entry when over capacity.
func (c *planCache) put(pl *Plan) {
	sh := c.shard(pl.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.items[pl.key]; ok {
		e.Value = pl
		sh.ll.MoveToFront(e)
		return
	}
	sh.items[pl.key] = sh.ll.PushFront(pl)
	for sh.ll.Len() > sh.cap {
		oldest := sh.ll.Back()
		sh.ll.Remove(oldest)
		delete(sh.items, oldest.Value.(*Plan).key)
		if c.evictions != nil {
			c.evictions.Add(1)
		}
	}
}

// len returns the number of plans currently cached across all shards.
func (c *planCache) len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.ll.Len()
		sh.mu.Unlock()
	}
	return total
}
