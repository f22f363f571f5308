// Package mem implements the sparse 64-bit data memory shared by the
// functional emulator and the timing simulator.
//
// Memory is word-granular (64-bit words at 8-byte-aligned byte addresses)
// and paged so that large, scattered working sets stay cheap. Reads of
// unmapped or misaligned-beyond-word addresses return zero: the timing
// simulator executes wrong-path loads for real, and a total (never
// faulting) memory keeps wrong paths harmless, exactly like SimpleScalar's
// speculative memory mode.
//
// A Memory is not safe for concurrent use, not even by concurrent
// readers: every lookup, Read64 included, updates the memory's
// last-page memo. Give each goroutine its own Clone.
package mem

const (
	pageBytes = 1 << 12 // 4 KiB pages
	pageWords = pageBytes / 8
	pageShift = 12
	wordShift = 3
)

// Memory is a sparse, paged 64-bit word memory. The zero value is an
// empty memory ready to use.
type Memory struct {
	pages map[uint64]*[pageWords]uint64
	// lastKey and lastPage memoize the most recent lookup that found
	// (or created) a page; lastPage is nil when nothing is memoized.
	// Only CopyFrom removes pages, and it clears the memo, so the memo
	// cannot go stale.
	lastKey  uint64
	lastPage *[pageWords]uint64
}

// New returns an empty memory.
func New() *Memory { return &Memory{pages: make(map[uint64]*[pageWords]uint64)} }

func (m *Memory) page(addr uint64, create bool) *[pageWords]uint64 {
	key := addr >> pageShift
	if m.lastPage != nil && m.lastKey == key {
		return m.lastPage
	}
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint64]*[pageWords]uint64)
	}
	p := m.pages[key]
	if p == nil && create {
		p = new([pageWords]uint64)
		m.pages[key] = p
	}
	if p != nil {
		m.lastKey, m.lastPage = key, p
	}
	return p
}

func wordIndex(addr uint64) uint64 { return (addr >> wordShift) & (pageWords - 1) }

// Read64 returns the word containing byte address addr (the address is
// truncated down to 8-byte alignment). Unmapped addresses read as zero.
func (m *Memory) Read64(addr uint64) uint64 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[wordIndex(addr)]
}

// Write64 stores val in the word containing byte address addr.
func (m *Memory) Write64(addr, val uint64) {
	p := m.page(addr, true)
	p[wordIndex(addr)] = val
}

// PagesAllocated returns the number of 4 KiB pages currently backed.
func (m *Memory) PagesAllocated() int { return len(m.pages) }

// Clone returns a deep copy of the memory. Used to give the functional
// reference and the timing simulator identical independent initial images.
func (m *Memory) Clone() *Memory {
	c := New()
	c.CopyFrom(m)
	return c
}

// CopyFrom makes m an exact copy of src, reusing m's pages: pages src
// lacks are dropped and the rest overwritten. src is only read (its
// last-page memo is not touched), so one image may be copied by
// several goroutines at once.
func (m *Memory) CopyFrom(src *Memory) {
	if m.pages == nil {
		m.pages = make(map[uint64]*[pageWords]uint64, len(src.pages))
	}
	for k := range m.pages {
		if src.pages[k] == nil {
			delete(m.pages, k)
		}
	}
	for k, sp := range src.pages {
		p := m.pages[k]
		if p == nil {
			p = new([pageWords]uint64)
			m.pages[k] = p
		}
		*p = *sp
	}
	m.lastKey, m.lastPage = 0, nil
}

// Checksum returns an order-independent FNV-style digest of all mapped,
// non-zero words. Two memories with identical contents (ignoring zero
// words, mapped or not) produce the same checksum; it is used by the
// architectural-equivalence tests.
func (m *Memory) Checksum() uint64 {
	var sum uint64
	for k, p := range m.pages {
		base := k << pageShift
		for i, w := range p {
			if w == 0 {
				continue
			}
			addr := base + uint64(i)<<wordShift
			x := addr*0x9e3779b97f4a7c15 + w
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			sum += x
		}
	}
	return sum
}
