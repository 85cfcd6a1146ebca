// Corpus verification: the on-disk rules over a corpus directory. VetDir
// deliberately does not open the corpus through trace.OpenDir — the
// strict loader refuses damaged corpora outright, and the verifier's job
// is to read past the damage and say precisely what and where it is. It
// reads with the loader's grammar and decoder all the same. The
// classification leans on the Appender's commit ordering (the whole
// stream file first, then its batch of index records in one write): a
// crash can leave an orphan — possibly half-written — stream file and a
// torn final batch, but can never damage committed data. Every fault
// consistent with that shape is a recoverable note; everything else is
// an error.

package tracevet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tracescope/internal/diag"
	"tracescope/internal/engine"
	"tracescope/internal/trace"
)

const indexName = "corpus.index"

// VetDir verifies the corpus directory at dir. The error return is
// operational (directory unreadable, no index at all) — verification
// findings, however severe, come back in the Report.
func VetDir(dir string, opts Options) (*Report, error) {
	indexData, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		return nil, fmt.Errorf("tracevet: %w", err)
	}
	sc := scanIndex(indexName, indexData)
	diags := sc.diags
	tailOffset := int64(-1)
	// An empty index is torn at offset 0, its own length.
	if sc.tailOffset < int64(len(indexData)) || len(indexData) == 0 {
		tailOffset = sc.tailOffset
	}

	if sc.foreign {
		return finishReport(diags, 0, tailOffset, opts.Recorder), nil
	}

	if !hasErrors(diags) && len(sc.metas) > 0 {
		// The scan found the prefix whole; the strict loader must too.
		if table, err := trace.ReadIndexIntern(indexData[:sc.tailOffset]); err != nil {
			diags = append(diags, vd(indexName, 1, "index-seq", diag.SevError,
				"the strict loader rejects the index's valid prefix: %v", err))
		} else {
			diags = append(diags, vetDirStreams(dir, sc, table, opts)...)
			diags = append(diags, vetStreamDups(sc, opts)...)
		}
	}
	diags = append(diags, vetOrphanFiles(dir, sc, opts)...)

	if opts.Semantic && !hasErrors(diags) && tailOffset < 0 {
		if src, err := trace.OpenDir(dir); err != nil {
			diags = append(diags, vd(indexName, 1, "stream-decode", diag.SevError,
				"corpus passed structural verification but the strict loader rejects it: %v", err))
		} else {
			diags = append(diags, vetSemantic(src, opts)...)
		}
	}
	rep := finishReport(diags, len(sc.metas), tailOffset, opts.Recorder)
	return rep, nil
}

// vetDirStreams verifies every indexed stream file in parallel, each
// into its own slot, so the findings come back in stream order.
func vetDirStreams(dir string, sc *scannedIndex, table *trace.InternTable, opts Options) []diag.Diagnostic {
	found := make([][]diag.Diagnostic, len(sc.metas))
	// No unit fails, so the fold cannot. Each worker decodes every stream
	// it vets into its one Scratch.
	_, _ = engine.Fold(len(found), engine.Options{
		Workers: opts.Workers, Recorder: opts.Recorder, Label: "vet",
	}, func(int) *trace.Scratch { return new(trace.Scratch) }, func(scratch *trace.Scratch, i int) error {
		found[i] = vetDirStream(dir, sc.metas[i], table, scratch, opts)
		return nil
	})
	var diags []diag.Diagnostic
	for _, d := range found {
		diags = append(diags, d...)
	}
	return diags
}

// vetDirStream reads and verifies one indexed stream file, decoding it
// into scratch.
func vetDirStream(dir string, m trace.StreamMeta, table *trace.InternTable, scratch *trace.Scratch, opts Options) []diag.Diagnostic {
	var diags []diag.Diagnostic
	fail := func(rule string, format string, args ...interface{}) []diag.Diagnostic {
		if opts.enabled(rule) {
			diags = append(diags, vd(m.File, 1, rule, diag.SevError, format, args...))
		}
		return diags
	}
	raw, err := os.ReadFile(filepath.Join(dir, m.File))
	if err != nil {
		// The batch commits last, so a crash cannot index a file that
		// was never written: a missing indexed file is corruption.
		return fail("stream-decode", "indexed stream file is missing: %v", err)
	}

	s, err := trace.ReadStreamV4(raw, table, scratch)
	if err != nil {
		if errors.Is(err, trace.ErrUndefinedRef) && opts.enabled("intern-ref") {
			return fail("intern-ref", "stream file names an intern entry the index does not define: %v", err)
		}
		return fail("stream-decode", "stream file does not decode: %v", err)
	}
	diags = append(diags, vetStream(s, m.File, opts)...)
	diags = append(diags, vetStreamMeta(s, m, m.File, opts)...)
	return diags
}

// vetStreamDups reports duplicate stream identities across the corpus.
func vetStreamDups(sc *scannedIndex, opts Options) []diag.Diagnostic {
	if !opts.enabled("stream-dup") {
		return nil
	}
	var diags []diag.Diagnostic
	first := make(map[string]int)
	for i, m := range sc.metas {
		if m.ID == "" {
			continue
		}
		if j, ok := first[m.ID]; ok {
			diags = append(diags, vd(m.File, 1, "stream-dup", diag.SevError,
				"stream id %q duplicates stream %d (%s)", m.ID, j, sc.metas[j].File))
			continue
		}
		first[m.ID] = i
	}
	return diags
}

// vetOrphanFiles reports stream files on disk that the index does not
// name. The Appender writes the stream file before its batch, so an
// orphan is the footprint of an interrupted append (or of an index
// recovered by truncation) — a note, not an error.
func vetOrphanFiles(dir string, sc *scannedIndex, opts Options) []diag.Diagnostic {
	if !opts.enabled("tail-truncated") {
		return nil
	}
	indexed := make(map[string]bool, len(sc.metas)+len(sc.refused))
	for _, m := range sc.metas {
		indexed[m.File] = true
	}
	for _, name := range sc.refused {
		indexed[name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil // the index was readable; treat a vanishing dir as out of scope
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if _, ok := trace.StreamFileSeq(name); ok && !e.IsDir() && !indexed[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var diags []diag.Diagnostic
	for _, name := range names {
		diags = append(diags, vd(name, 1, "tail-truncated", diag.SevNote,
			"stream file is not in the index: consistent with an interrupted append (the batch commits last); safe to delete"))
	}
	return diags
}
