package ser

// Clone returns a copy of b backed by fresh memory: how a receiver makes a
// []byte its own. A []byte decoded by DecodeArgsAlias aliases its input (the
// runtime's reassembled broadcast, shared by every local receiver of that
// broadcast), and one passed between PEs of a node is the sender's own
// slice. Neither buffer is recycled, so what the copy guards against is
// sharing: a write by one holder is seen by the others.
//
// Like bytes.Clone, Clone of nil is nil, and Clone of an empty non-nil slice
// is an empty non-nil slice.
func Clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// CloneArgs is Clone for a decoded argument list: it returns a copy of args
// whose aliasing parts — []byte leaves, recursively through nested []any
// lists — are backed by fresh memory. Those are exactly the shapes
// DecodeArgsAlias can leave pointing into its input; every other argument
// kind is decoded by value, so it is carried over as-is. An entry method
// that keeps its whole argument list (or a slice of it) as its own passes
// it through CloneArgs first. CloneArgs of nil is nil.
func CloneArgs(args []any) []any {
	if args == nil {
		return nil
	}
	out := make([]any, len(args))
	for i, v := range args {
		switch x := v.(type) {
		case []byte:
			out[i] = Clone(x)
		case []any:
			out[i] = CloneArgs(x)
		default:
			out[i] = v
		}
	}
	return out
}
