package engine

import "io"

// Durable is implemented by engines whose map state can be checkpointed
// and restored without replaying the stream. The watermark is the WAL
// sequence number the state covers; it round-trips through the snapshot
// so recovery knows where log replay resumes.
type Durable interface {
	// StateSnapshot writes the engine's complete map state.
	StateSnapshot(w io.Writer, watermark uint64) error
	// StateRestore replaces the engine's map state with a snapshot and
	// returns its watermark. On error the engine state is untouched.
	StateRestore(r io.Reader) (uint64, error)
}

// StateSnapshot implements Durable.
func (t *Toaster) StateSnapshot(w io.Writer, watermark uint64) error {
	return t.rt.SnapshotAt(w, watermark)
}

// StateRestore implements Durable.
func (t *Toaster) StateRestore(r io.Reader) (uint64, error) {
	return t.rt.RestoreMeta(r)
}
