// Package cache models the memory hierarchy of Table 1: set-associative
// write-back caches with LRU replacement, a three-level data hierarchy
// (L1D / L2 / L3, with the L3 miss time standing in for main memory), a
// separate instruction cache, optional wide buses that return a whole
// cache line per access (§2.4.5), and a bounded number of outstanding L1
// misses (MSHRs).
//
// The caches are timing models: an access returns the latency in cycles
// and updates hit/miss/access counters. Data contents live in mem.Memory;
// the cache only tracks presence.
package cache

import "math/bits"

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the line (block) size.
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// HitLat is the access latency on a hit, in cycles.
	HitLat int
	// MissLat is the additional latency charged on a miss at this level
	// (the time to reach and return from the next level, as in Table 1's
	// flat "miss time" figures).
	MissLat int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Stats counts accesses at one cache level.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// Cache is a single set-associative cache level. The ways of all sets
// live in one flat backing array (set s occupies lines[s*Assoc :
// (s+1)*Assoc]), so building a cache costs one allocation and lookups
// stay on one cache line per set.
type Cache struct {
	cfg      Config
	lines    []line
	clock    uint64
	shift    uint // log2(LineBytes)
	setShift uint // log2(set count)
	setMsk   uint64
	// last indexes the line holding the most recently accessed block,
	// lastBlock is that block's address (addr >> shift); last is -1
	// when nothing is memoized. Only Access changes which block a line
	// holds, and it always leaves its own block resident, so a repeat
	// access to lastBlock is a hit on lines[last]. An index rather than
	// a pointer keeps GC write barriers off the access path.
	last      int
	lastBlock uint64

	Stats Stats

	// filled is a one-bit-per-set map of the sets whose lines may differ
	// from the New state: Access marks a set when it fills an invalid
	// way (lines only become valid that way), and LoadState and
	// CopyFrom mark every set. Reset clears only these, so returning a
	// large cache to its New state costs the sets a run touched, not
	// the capacity.
	filled []uint64
}

// New builds a cache from cfg. The geometry must be a power-of-two
// line size and set count.
func New(cfg Config) *Cache { return renew(nil, cfg) }

// renew returns a cache in exactly the state New(cfg) builds. It
// reuses spent's storage, reset in place, when spent has cfg's
// geometry (line size, associativity and set count; latencies may
// differ), and allocates otherwise. spent may be nil; when reused it
// must not be used afterwards.
func renew(spent *Cache, cfg Config) *Cache {
	nsets := cfg.Sets()
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: line size must be a positive power of two")
	}
	c := spent
	if c == nil || c.cfg.Sets() != nsets || c.cfg.Assoc != cfg.Assoc || c.cfg.LineBytes != cfg.LineBytes {
		c = &Cache{
			lines:  make([]line, nsets*cfg.Assoc),
			filled: make([]uint64, (nsets+63)/64),
			shift:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
			// The set-index width; the set count is a power of two.
			setShift: uint(bits.TrailingZeros(uint(nsets))),
			setMsk:   uint64(nsets - 1),
		}
	}
	c.cfg = cfg
	c.Reset()
	return c
}

// Reset returns the cache to the state New builds: every line
// invalid, the LRU clock, the memo and the statistics cleared. It
// costs the sets filled since the last reset, not the capacity.
func (c *Cache) Reset() {
	for w, word := range c.filled {
		for b := word; b != 0; b &= b - 1 {
			clear(c.set(w<<6 + bits.TrailingZeros64(b)))
		}
	}
	clear(c.filled)
	c.clock = 0
	c.last, c.lastBlock = -1, 0
	c.Stats = Stats{}
}

// markAllFilled records that every set may hold state (a bulk load).
func (c *Cache) markAllFilled() {
	for i := range c.filled {
		c.filled[i] = ^uint64(0)
	}
	if r := c.cfg.Sets() & 63; r != 0 {
		c.filled[len(c.filled)-1] = 1<<r - 1
	}
}

// set returns the ways of the set holding addr's index.
func (c *Cache) set(set int) []line {
	return c.lines[set*c.cfg.Assoc : (set+1)*c.cfg.Assoc]
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	block := addr >> c.shift
	return int(block & c.setMsk), block >> c.setShift
}

// Lookup reports whether addr currently hits, without updating any state
// or statistics.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	lines := c.set(set)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			return true
		}
	}
	return false
}

// Access performs a read (write=false) or write (write=true) access to
// the line containing addr. It returns whether it hit and the latency in
// cycles. Misses allocate (write-allocate) and evict LRU.
func (c *Cache) Access(addr uint64, write bool) (hit bool, lat int) {
	c.clock++
	c.Stats.Accesses++
	if c.last >= 0 && addr>>c.shift == c.lastBlock {
		l := &c.lines[c.last]
		l.lru = c.clock
		l.dirty = l.dirty || write
		c.Stats.Hits++
		return true, c.cfg.HitLat
	}
	set, tag := c.index(addr)
	lines := c.set(set)
	base := set * c.cfg.Assoc
	c.lastBlock = addr >> c.shift
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.clock
			if write {
				lines[i].dirty = true
			}
			c.Stats.Hits++
			c.last = base + i
			return true, c.cfg.HitLat
		}
	}
	c.Stats.Misses++
	// Allocate: fill an invalid way if one exists, else evict LRU.
	victim := -1
	for i := range lines {
		if !lines[i].valid {
			victim = i
			c.filled[set>>6] |= 1 << (set & 63)
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(lines); i++ {
			if lines[i].lru < lines[victim].lru {
				victim = i
			}
		}
	}
	lines[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	c.last = base + victim
	return false, c.cfg.HitLat + c.cfg.MissLat
}

// LineAddr returns the address of the first byte of the line holding addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}
