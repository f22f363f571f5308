package bpred

import (
	"bytes"
	"testing"

	"civect/internal/ckpt"
)

// TestCopyFromMatchesSaveState: after CopyFrom, the destination encodes
// to exactly the source's bytes, so the copy is the checkpoint round
// trip without the codec.
func TestCopyFromMatchesSaveState(t *testing.T) {
	g, gdst := NewGshare(1024), NewGshare(1024)
	m, mdst := NewMBS(16, 4), NewMBS(16, 4)
	for i := uint64(0); i < 5000; i++ {
		pc := i * 2654435761 % 4093
		taken := (i*i)%3 == 0
		g.Update(pc, taken)
		m.Update(pc, taken)
	}
	gdst.Update(7, false) // the destination's own state must be overwritten
	mdst.Update(7, false)
	if err := gdst.CopyFrom(g); err != nil {
		t.Fatal(err)
	}
	if err := mdst.CopyFrom(m); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		src, dst func(*ckpt.Encoder)
	}{
		{"gshare", g.SaveState, gdst.SaveState},
		{"MBS", m.SaveState, mdst.SaveState},
	} {
		var a, b ckpt.Encoder
		c.src(&a)
		c.dst(&b)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: CopyFrom destination encodes differently from its source", c.name)
		}
	}
}

func TestCopyFromGeometryMismatch(t *testing.T) {
	if err := NewGshare(1024).CopyFrom(NewGshare(2048)); err == nil {
		t.Error("gshare CopyFrom accepted a different entry count")
	}
	if err := NewMBS(16, 4).CopyFrom(NewMBS(32, 2)); err == nil {
		t.Error("MBS CopyFrom accepted a different geometry")
	}
}
