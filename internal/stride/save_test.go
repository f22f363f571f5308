package stride

import (
	"bytes"
	"testing"

	"civect/internal/ckpt"
)

// TestCopyFromMatchesSaveState: after CopyFrom, the destination encodes
// to exactly the source's bytes, so the copy is the checkpoint round
// trip without the codec.
func TestCopyFromMatchesSaveState(t *testing.T) {
	src, dst := New(64, 2), New(64, 2)
	for i := uint64(0); i < 3000; i++ {
		pc := i % 211
		src.Observe(pc, 0x1000+pc*64+i*8)
	}
	dst.Observe(3, 0x40) // the destination's own state must be overwritten
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	var a, b ckpt.Encoder
	src.SaveState(&a)
	dst.SaveState(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("CopyFrom destination encodes differently from its source")
	}
	if err := New(64, 2).CopyFrom(New(32, 4)); err == nil {
		t.Error("CopyFrom accepted a different geometry")
	}
}
