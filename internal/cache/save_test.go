package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"civect/internal/ckpt"
)

func encode(c *Cache) []byte {
	var e ckpt.Encoder
	c.SaveState(&e)
	return e.Bytes()
}

// accessStream is an address stream with the locality the same-block
// memo exists for: runs of accesses to one block, scattered jumps, and
// returns to recently seen blocks.
func accessStream(n int, seed int64) (addrs []uint64, writes []bool) {
	rng := rand.New(rand.NewSource(seed))
	addr := uint64(0)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 5: // same block
		case r < 8:
			addr += 8
		default:
			addr = uint64(rng.Intn(4096)) * 8
		}
		addrs = append(addrs, addr)
		writes = append(writes, rng.Intn(4) == 0)
	}
	return addrs, writes
}

// TestSameBlockMemoMatchesSlowPath replays one stream into two caches,
// one of which forgets its memo before every access, and requires every
// outcome and the final encoded state to agree — including across Flush
// and LoadState, which must drop the memo.
func TestSameBlockMemoMatchesSlowPath(t *testing.T) {
	addrs, writes := accessStream(20000, 1)
	fast, slow := New(small()), New(small())
	snap := New(small())
	snap.Access(0x40, true)
	for i, a := range addrs {
		switch i {
		case 5000:
			fast.Reset()
			slow.Reset()
		case 12000:
			for _, c := range []*Cache{fast, slow} {
				d := ckpt.NewDecoder(encode(snap))
				if c.LoadState(d); d.Err() != nil {
					t.Fatal(d.Err())
				}
			}
		}
		slow.last = -1
		fh, fl := fast.Access(a, writes[i])
		sh, sl := slow.Access(a, writes[i])
		if fh != sh || fl != sl {
			t.Fatalf("access %d (%#x): memo path (%v, %d) vs slow path (%v, %d)", i, a, fh, fl, sh, sl)
		}
	}
	if !bytes.Equal(encode(fast), encode(slow)) {
		t.Fatal("memo path left different cache state from the slow path")
	}
}

// TestCopyFromMatchesSaveState: after CopyFrom, the destination encodes
// to exactly the source's bytes, and a memo the destination held before
// the copy does not survive it.
func TestCopyFromMatchesSaveState(t *testing.T) {
	src, dst := New(small()), New(small())
	addrs, writes := accessStream(3000, 2)
	for i, a := range addrs {
		src.Access(a, writes[i])
	}
	dst.Access(0x100000, false) // dst memoizes a block the source never saw
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(src), encode(dst)) {
		t.Fatal("CopyFrom destination encodes differently from its source")
	}
	if hit, _ := dst.Access(0x100000, false); hit {
		t.Error("destination answered from its pre-copy memo")
	}
	other := small()
	other.Assoc = 4
	if err := New(small()).CopyFrom(New(other)); err == nil {
		t.Error("CopyFrom accepted a different geometry")
	}
}
