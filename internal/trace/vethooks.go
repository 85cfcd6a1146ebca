package trace

// Verification hooks for internal/tracevet. The verifier must be able
// to open the *valid prefix* of a crash-torn corpus — something the
// strict OpenDir path refuses by design — so the package-private decode
// primitives are exposed here as plain funcs over byte slices, with no
// directory walking. The verifier reads the index itself line by line
// with ParseIndexLine (index.go).

// ReadIndexIntern parses a complete corpus.index and returns the intern
// table its f and k records define.
func ReadIndexIntern(data []byte) (*InternTable, error) {
	_, it, err := parseIndex(string(data))
	return it, err
}

// ReadStreamV4 decodes one TSC4 columnar stream file against the
// corpus-level intern table into sc, under the Scratch contract: the
// stream is valid until sc's next decode. Unlike DirSource.StreamInto it
// performs no index cross-checks; corruption of any kind surfaces as
// ErrBadFormat.
func ReadStreamV4(data []byte, it *InternTable, sc *Scratch) (*Stream, error) {
	s, _, err := decodeStream(data, it, sc)
	return s, err
}
