// Package native runs the generated-code execution path: it compiles the
// Go source that internal/codegen emits and drives the resulting artifact
// — the paper's "generate native code, hand it to the compiler, execute"
// deployment story, which the closure engines only approximate.
//
// The artifact is an ordinary binary run as a child process speaking a
// small length-prefixed protocol over stdin/stdout (Proc). Event batches
// are pipelined (buffered, unacknowledged) and the state dump is the sync
// barrier, so per-event overhead is a buffered write, not a round trip.
//
// Builds are cached in the system temp directory keyed by source hash, so
// repeated engines of the same query skip the toolchain entirely.
package native

import (
	"dbtoaster/internal/types"
)

// Event is one admitted, coerced event addressed by wire relation index
// (codegen.Spec.RelIndex). Args kinds must satisfy the relation's checks;
// the engine layer validates before handing events down.
type Event struct {
	Rel    int
	Insert bool
	Args   types.Tuple
}

// MapDump is one view map's state as reported by the child, keys decoded
// and canonicalized through the types constructors (so -0.0 float keys
// arrive normalized, exactly as interpreter boxing would leave them).
type MapDump struct {
	Name string
	Keys []types.Tuple
	Vals []float64
}
