package trace

import "civect/internal/ckpt"

// AtomicFile is a journal sink that makes publication atomic (see
// ckpt.AtomicFile): the destination path either holds a complete,
// trailer-sealed journal or does not exist, even after a crash, a
// write error or a cancelled recording.
//
// Typical use records through the façade and publishes on success only:
//
//	af, err := trace.NewAtomicFile(path)
//	if err != nil { ... }
//	defer af.Abort() // no-op after a successful Commit
//	s, err := sim.New(w, sim.WithTrace(af), ...)
//	...
//	if res, err := s.Run(ctx); err == nil {
//		err = af.Commit()
//	}
//
// Commit must only be called once the journal is complete
// (Recorder.Close returned nil).
type AtomicFile = ckpt.AtomicFile

// NewAtomicFile creates the journal's temp file next to path.
func NewAtomicFile(path string) (*AtomicFile, error) { return ckpt.NewAtomicFile(path) }
