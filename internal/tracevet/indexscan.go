// A lenient, diagnosing corpus.index scan: the loader's grammar,
// trace.ParseIndexLine, under the verifier's policy. Where the loader
// stops at the first fault, the scan reads on, reports every fault with
// its line, and tells a torn tail from corruption: the Appender lands a
// stream's batch (its new intern records, then its stream and instance
// records) last and in one write, so a crash can leave a partial final
// batch (recoverable by truncating to the last batch boundary) but
// never corrupts committed ones.

package tracevet

import (
	"errors"
	"strings"

	"tracescope/internal/diag"
	"tracescope/internal/trace"
)

// scannedIndex is the outcome of scanning one corpus.index.
type scannedIndex struct {
	// metas holds the valid-prefix stream records.
	metas []trace.StreamMeta
	// refused names the files of stream records the grammar refused:
	// the index names them, so they are no orphans.
	refused []string
	diags   []diag.Diagnostic
	// tailOffset is the byte length of the longest valid prefix:
	// truncating the file here removes every torn-tail fault. Equal to
	// the file length when the index is whole.
	tailOffset int64
	// foreign: the header names another format version, so nothing in
	// the directory can be interpreted and no other rule runs.
	foreign bool
}

// scanIndex scans the contents of artifact (a corpus.index file).
func scanIndex(artifact string, data []byte) *scannedIndex {
	text := string(data)
	sc := &scannedIndex{tailOffset: int64(len(text))}
	addErr := func(line int, rule, format string, args ...interface{}) {
		sc.diags = append(sc.diags, vd(artifact, line, rule, diag.SevError, format, args...))
	}
	// fault reports a record the parser refused: a reference to an
	// undefined frame under intern-ref, anything else under index-seq.
	fault := func(line int, what string, err error) {
		if err == nil {
			return
		}
		rule := "index-seq"
		if errors.Is(err, trace.ErrUndefinedRef) {
			rule = "intern-ref"
		}
		addErr(line, rule, "%s: %v", what, err)
	}
	tornTail := func(line int, what string) {
		sc.diags = append(sc.diags, vd(artifact, line, "tail-truncated", diag.SevNote,
			"%s at line %d: recoverable interrupted append; truncate the index to %d bytes to recover",
			what, line, sc.tailOffset))
	}
	// lineAt returns the line starting at offset off, with its newline.
	// A final line without one is torn: the Appender terminates every
	// record, so the write was interrupted mid-line.
	lineAt := func(off int) (line string, torn bool) {
		n := strings.IndexByte(text[off:], '\n') + 1
		if n == 0 {
			return text[off:], true
		}
		return text[off : off+n], false
	}

	var rec, in trace.IndexRecord
	header, _ := lineAt(0)
	if err := trace.ParseIndexLine(header, -1, &rec); err != nil {
		addErr(1, "index-seq", "%v: regenerate the corpus with tracegen", err)
		sc.foreign = true
		return sc
	} else if rec.Tag != 'h' {
		// An empty file or a strict prefix of the header line is what a
		// crash inside the first append leaves: nothing was committed,
		// and the Appender starts such an index over.
		sc.tailOffset = 0
		tornTail(1, "empty or torn header")
		return sc
	}

	seq := 0
	frames := 0
	// batch is the offset of the open batch's first line: its first
	// intern record, or its stream record.
	batch := -1
	// lost: the lines are the instance records of a stream record
	// already reported, not faults of their own.
	lost := false
	// off is the offset of the next line, and num the number of the last.
	off, num := len(header), 1
scan:
	for off < len(text) {
		start := off
		line, torn := lineAt(off)
		off += len(line)
		num++
		if torn {
			sc.tailOffset = int64(start)
			if batch >= 0 {
				sc.tailOffset = int64(batch)
			}
			tornTail(num, "torn final record")
			batch = -1
			break
		}
		err := trace.ParseIndexLine(line, frames, &rec)
		if rec.Tag == 0 && err == nil {
			// The loader skips blank lines, so one after the last whole
			// batch extends the valid prefix.
			if sc.tailOffset == int64(start) {
				sc.tailOffset = int64(off)
			}
			continue
		}
		if rec.Tag == 'i' && err == nil && lost {
			continue
		}
		lost = false
		if batch < 0 && (rec.Tag == 'f' || rec.Tag == 'k' || rec.Tag == 's') {
			batch = start
		}
		switch rec.Tag {
		case 'f':
			frames++
			fault(num, "frame record", err)
			continue
		case 'k':
			fault(num, "stack record", err)
			continue
		case 's':
		default:
			addErr(num, "index-seq", "expected a frame, stack or stream record, got %q", strings.TrimSuffix(line, "\n"))
			continue
		}
		if err != nil {
			// Its instance records go with it, and when its sequence
			// number is the expected one it still holds its position.
			fault(num, "stream record", err)
			if rec.Stream.File != "" {
				sc.refused = append(sc.refused, rec.Stream.File)
				if rec.Seq == seq {
					seq++
				}
			}
			batch, lost = -1, true
			continue
		}
		if rec.Seq != seq {
			addErr(num, "index-seq",
				"sequence number %d at record position %d (gap, reorder, or rewrite)", rec.Seq, seq)
			// Resync on the file's own numbering so one gap reports once,
			// not once per following record.
			seq = rec.Seq
		}
		m, sline := rec.Stream, num
		for j := 0; j < rec.NumInstances; j++ {
			if off == len(text) {
				sc.tailOffset = int64(batch)
				tornTail(sline, "truncated instance list (clean end-of-file mid-record)")
				batch = -1
				break scan
			}
			il, torn := lineAt(off)
			if torn {
				sc.tailOffset = int64(batch)
				tornTail(num+1, "torn instance record")
				batch = -1
				break scan
			}
			err := trace.ParseIndexLine(il, frames, &in)
			if in.Tag != 'i' {
				// Reported here, and scanned next as a record of its own.
				addErr(num+1, "index-seq", "expected instance record %d of %q, got %q", j, m.File, strings.TrimSuffix(il, "\n"))
				batch = -1
				continue scan
			}
			off += len(il)
			num++
			if err != nil {
				fault(num, "instance record", err)
				continue
			}
			m.Instances = append(m.Instances, in.Instance)
		}
		sc.metas = append(sc.metas, m)
		sc.tailOffset = int64(off)
		batch = -1
		seq++
	}
	if batch >= 0 {
		// Intern records with no stream record after them: the batch was
		// cut between lines.
		sc.tailOffset = int64(batch)
		tornTail(num, "intern records with no stream record after them")
	}
	return sc
}
