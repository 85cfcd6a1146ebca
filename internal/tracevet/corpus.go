// Corpus verification: the on-disk rules over a corpus directory. VetDir
// deliberately does not open the corpus through trace.OpenDir — the
// strict loader refuses damaged corpora outright, and the verifier's job
// is to read past the damage and say precisely what and where it is. The
// classification leans on the Appender's commit ordering (intern records
// first, then the whole stream file, then the index record): a crash can
// leave orphan intern records, an orphan — possibly half-written —
// stream file, and a torn final index record, but can never damage
// committed data. Every fault consistent with that shape is a
// recoverable note; everything else is an error.

package tracevet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tracescope/internal/diag"
	"tracescope/internal/engine"
	"tracescope/internal/trace"
	"tracescope/internal/trace/colfmt"
)

const indexName = "corpus.index"
const internName = "corpus.intern"

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

	it := scanInternFile(dir, len(sc.metas) > 0, opts)
	diags = append(diags, it.diags...)
	if sc.usable && it.usable {
		streamDiags, streams := vetDirStreams(dir, sc, it, opts)
		diags = append(diags, streamDiags...)
		diags = append(diags, vetStreamDups(sc, streams, opts)...)
		diags = append(diags, vetInternOrphans(it, streams, opts)...)
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

// dirStream is the per-stream result of the on-disk verification phase.
type dirStream struct {
	diags []diag.Diagnostic
	// id is the stream's identity as the index records it, for
	// duplicate detection.
	id string
	// frames and stacks are the global intern IDs the stream file's
	// local tables reference, for orphan detection.
	frames []uint64
	stacks []uint64
}

// vetDirStreams verifies every indexed stream file in parallel, each
// into its own slot, so the findings come back in stream order.
func vetDirStreams(dir string, sc *scannedIndex, it *internScan, opts Options) ([]diag.Diagnostic, []dirStream) {
	streams := make([]dirStream, len(sc.metas))
	// No unit fails, so the fold cannot; its per-worker states are unused.
	_, _ = engine.Fold(len(streams), engine.Options{
		Workers: opts.Workers, Recorder: opts.Recorder, Label: "vet",
	}, func(int) struct{} { return struct{}{} }, func(_ struct{}, i int) error {
		streams[i] = vetDirStream(dir, sc, it, i, opts)
		return nil
	})
	var diags []diag.Diagnostic
	for _, st := range streams {
		diags = append(diags, st.diags...)
	}
	return diags, streams
}

// vetDirStream reads and verifies one indexed stream file.
func vetDirStream(dir string, sc *scannedIndex, it *internScan, i int, opts Options) dirStream {
	m := sc.metas[i]
	out := dirStream{id: m.ID}
	fail := func(rule string, format string, args ...interface{}) dirStream {
		if opts.enabled(rule) {
			out.diags = append(out.diags, vd(m.File, 1, rule, diag.SevError, format, args...))
		}
		return out
	}
	raw, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(m.File)))
	if err != nil {
		// The index record commits last, so a crash cannot index a file
		// that was never written: a missing indexed file is corruption.
		return fail("stream-decode", "indexed stream file is missing: %v", err)
	}

	skim, serr := skimV4Header(raw)
	if serr != "" {
		return fail("stream-decode", "stream file does not parse: %s", serr)
	}
	out.frames, out.stacks = skim.frames, skim.stacks
	if dangling := skim.dangling(it); len(dangling) > 0 && opts.enabled("intern-ref") {
		for _, d := range dangling {
			out.diags = append(out.diags, vd(m.File, 1, "intern-ref", diag.SevError, "%s", d))
		}
		return out
	}
	s, err := trace.ReadStreamV4(raw, it.table)
	if err != nil {
		return fail("stream-decode", "stream file does not decode: %v", err)
	}
	out.diags = append(out.diags, vetStream(s, m.File, opts)...)
	out.diags = append(out.diags, vetStreamMeta(s, m, m.File, opts)...)
	return out
}

// vetStreamDups reports duplicate stream identities across the corpus.
func vetStreamDups(sc *scannedIndex, streams []dirStream, opts Options) []diag.Diagnostic {
	if !opts.enabled("stream-dup") {
		return nil
	}
	var diags []diag.Diagnostic
	first := make(map[string]int)
	for i, st := range streams {
		if st.id == "" {
			continue
		}
		if j, ok := first[st.id]; ok {
			diags = append(diags, vd(sc.metas[i].File, 1, "stream-dup", diag.SevError,
				"stream id %q duplicates stream %d (%s)", st.id, j, sc.metas[j].File))
			continue
		}
		first[st.id] = i
	}
	return diags
}

// internScan is the lenient read of one corpus.intern file.
type internScan struct {
	// table holds the valid-prefix intern table.
	table *trace.InternTable
	// frames and stacks count the valid-prefix entries.
	frames, stacks int
	diags          []diag.Diagnostic
	// usable: the valid prefix is trustworthy (no error findings).
	usable bool
}

// scanInternFile leniently reads dir's corpus.intern. required reports
// whether the index names at least one stream (a corpus with streams
// must have an intern file; an empty corpus's may be absent).
func scanInternFile(dir string, required bool, opts Options) *internScan {
	sc := &internScan{usable: true}
	bad := func(rule, format string, args ...interface{}) *internScan {
		sc.diags = append(sc.diags, vd(internName, 1, rule, diag.SevError, format, args...))
		sc.usable = false
		return sc
	}
	data, err := os.ReadFile(filepath.Join(dir, internName))
	if err != nil {
		if !required && os.IsNotExist(err) {
			sc.table = &trace.InternTable{}
			return sc
		}
		return bad("intern-ref", "corpus.intern unreadable: %v", err)
	}
	if !bytes.HasPrefix(data, []byte(colfmt.InternMagic)) {
		return bad("intern-ref", "corpus.intern lacks the %q header", strings.TrimSpace(colfmt.InternMagic))
	}
	body := data[len(colfmt.InternMagic):]
	validLen, frames, stacks, problem, torn := scanInternRecords(body)
	if problem != "" {
		return bad("intern-ref", "corpus.intern record %d: %s", frames+stacks, problem)
	}
	if torn && opts.enabled("tail-truncated") {
		sc.diags = append(sc.diags, vd(internName, 1, "tail-truncated", diag.SevNote,
			"corpus.intern ends mid-record after %d frames and %d stacks: recoverable interrupted append; truncate to %d bytes to recover",
			frames, stacks, len(colfmt.InternMagic)+validLen))
	}
	table, err := trace.ReadInternFile(data[:len(colfmt.InternMagic)+validLen])
	if err != nil {
		// The lenient scan accepted this prefix; the strict reader must too.
		return bad("intern-ref", "corpus.intern valid prefix does not load: %v", err)
	}
	sc.table = table
	sc.frames, sc.stacks = frames, stacks
	return sc
}

// scanInternRecords walks intern records to the first fault, returning
// the byte length of the valid prefix, its record counts, a problem
// description for corruption, and whether the fault is a torn tail
// (truncated final record — the recoverable crash shape).
func scanInternRecords(body []byte) (validLen, frames, stacks int, problem string, torn bool) {
	off := 0
	for off < len(body) {
		recStart := off
		rec := body[off]
		off++
		switch rec {
		case 'F':
			v, n := binary.Uvarint(body[off:])
			if n == 0 {
				return recStart, frames, stacks, "", true
			}
			if n < 0 || v > 1<<20 {
				return recStart, frames, stacks, "oversized frame record", false
			}
			off += n
			if uint64(len(body)-off) < v {
				return recStart, frames, stacks, "", true
			}
			off += int(v)
			frames++
		case 'S':
			v, n := binary.Uvarint(body[off:])
			if n == 0 {
				return recStart, frames, stacks, "", true
			}
			if n < 0 || v > 1<<16 {
				return recStart, frames, stacks, "oversized stack record", false
			}
			off += n
			for i := uint64(0); i < v; i++ {
				f, n := binary.Uvarint(body[off:])
				if n == 0 {
					return recStart, frames, stacks, "", true
				}
				if n < 0 {
					return recStart, frames, stacks, "malformed stack frame id", false
				}
				if f >= uint64(frames) {
					return recStart, frames, stacks,
						fmt.Sprintf("stack references frame %d of %d", f, frames), false
				}
				off += n
			}
			stacks++
		default:
			return recStart, frames, stacks, fmt.Sprintf("unknown record byte %#x", rec), false
		}
	}
	return off, frames, stacks, "", false
}

// skimmedV4 is the reference surface of one TSC4 header: the global
// intern IDs its local tables name.
type skimmedV4 struct {
	frames []uint64
	stacks []uint64
}

// dangling lists the stream's references that fall outside the intern
// table's valid prefix, in table order.
func (sk *skimmedV4) dangling(it *internScan) []string {
	var out []string
	for li, g := range sk.frames {
		if g >= uint64(it.table.NumFrames()) {
			out = append(out, fmt.Sprintf("local frame %d references corpus.intern frame %d of %d (dangling)",
				li, g, it.table.NumFrames()))
		}
	}
	for li, g := range sk.stacks {
		if g >= uint64(it.table.NumStacks()) {
			out = append(out, fmt.Sprintf("local stack %d references corpus.intern stack %d of %d (dangling)",
				li, g, it.table.NumStacks()))
		}
	}
	return out
}

// skimV4Header parses a TSC4 container through its local frame and
// stack tables — enough to name every intern reference — without
// decoding threads, instances, or events.
func skimV4Header(raw []byte) (*skimmedV4, string) {
	if len(raw) < 6 || string(raw[:4]) != "TSC4" {
		return nil, "bad TSC4 magic"
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != 4 {
		return nil, fmt.Sprintf("container version %d, want 4", v)
	}
	off := 6
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(raw[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	idLen, ok := uv()
	if !ok || uint64(len(raw)-off) < idLen {
		return nil, "truncated stream id"
	}
	off += int(idLen)
	sk := &skimmedV4{}
	for _, tab := range []*[]uint64{&sk.frames, &sk.stacks} {
		n, ok := uv()
		if !ok || n > 1<<24 {
			return nil, "truncated local table header"
		}
		*tab = make([]uint64, 0, n)
		for i := uint64(0); i < n; i++ {
			g, ok := uv()
			if !ok {
				return nil, "truncated local table"
			}
			*tab = append(*tab, g)
		}
	}
	return sk, ""
}

// vetInternOrphans reports committed intern entries no stream references
// (directly, or for frames through a referenced stack). Orphans are the
// expected leftovers of an interrupted append — the intern records land
// before the stream that needs them — so they are notes, not errors.
func vetInternOrphans(it *internScan, streams []dirStream, opts Options) []diag.Diagnostic {
	if !opts.enabled("intern-orphan") {
		return nil
	}
	usedFrames := make([]bool, it.frames)
	usedStacks := make([]bool, it.stacks)
	for _, st := range streams {
		for _, g := range st.frames {
			if g < uint64(it.frames) {
				usedFrames[g] = true
			}
		}
		for _, g := range st.stacks {
			if g < uint64(it.stacks) {
				usedStacks[g] = true
			}
		}
	}
	for id, used := range usedStacks {
		if !used {
			continue
		}
		for _, f := range it.table.StackFrames(trace.StackID(id)) {
			if int(f) < it.frames {
				usedFrames[f] = true
			}
		}
	}
	orphanFrames := countFalse(usedFrames)
	orphanStacks := countFalse(usedStacks)
	if orphanFrames == 0 && orphanStacks == 0 {
		return nil
	}
	return []diag.Diagnostic{vd(internName, 1, "intern-orphan", diag.SevNote,
		"%d frame and %d stack intern entries are referenced by no stream: consistent with an interrupted append; harmless but reclaimable by rewriting the corpus",
		orphanFrames, orphanStacks)}
}

func countFalse(bs []bool) int {
	n := 0
	for _, b := range bs {
		if !b {
			n++
		}
	}
	return n
}

// vetOrphanFiles reports stream files on disk that the index does not
// name. The Appender writes the stream file before its index record, so
// an orphan is the footprint of an interrupted append (or of an index
// recovered by truncation) — a note, not an error.
func vetOrphanFiles(dir string, sc *scannedIndex, opts Options) []diag.Diagnostic {
	if !opts.enabled("tail-truncated") {
		return nil
	}
	indexed := make(map[string]bool, len(sc.metas))
	for _, m := range sc.metas {
		indexed[m.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil // the index was readable; treat a vanishing dir as out of scope
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || indexed[name] || !strings.HasPrefix(name, "stream-") {
			continue
		}
		if strings.HasSuffix(name, ".tsc4") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var diags []diag.Diagnostic
	for _, name := range names {
		diags = append(diags, vd(name, 1, "tail-truncated", diag.SevNote,
			"stream file is not in the index: consistent with an interrupted append (the index record commits last); safe to delete"))
	}
	return diags
}
