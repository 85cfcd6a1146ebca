// A lenient, diagnosing corpus.index scanner. The production parser
// (trace.parseIndex) is strict by design: any fault rejects the whole
// corpus. The verifier needs the opposite — parse as far as the bytes
// allow, report every fault with its line number, and classify the
// failure mode. The crucial distinction is torn tail vs corruption:
// the Appender lands a stream's batch (its new intern records, then its
// stream and instance records) last and in one write, so a crash can
// leave a partial final batch (recoverable by truncating the index to
// the last batch boundary) but can never corrupt committed batches;
// anything malformed before the tail is real corruption. The scanner is
// an independent reimplementation of the documented format on purpose:
// a verifier that trusts the production parser inherits its bugs.

package tracevet

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"tracescope/internal/diag"
	"tracescope/internal/trace"
)

// scannedIndex is the outcome of scanning one corpus.index.
type scannedIndex struct {
	// metas holds the valid-prefix stream records.
	metas []trace.StreamMeta
	diags []diag.Diagnostic
	// tailOffset is the byte length of the longest valid prefix:
	// truncating the file here removes every torn-tail fault. Equal to
	// the file length when the index is whole.
	tailOffset int64
	// usable: the metas prefix is trustworthy and per-stream
	// verification can proceed (no error-severity index faults).
	usable bool
	// foreign: the header names another format version, so nothing in
	// the directory can be interpreted and no other rule runs.
	foreign bool
}

// indexHeader is the first line of the one corpus.index version.
const indexHeader = "TSINDEX 5"

// streamFile names the file of the stream at sequence number seq, as
// the Appender writes it.
func streamFile(seq int) string { return fmt.Sprintf("stream-%05d.tsc4", seq) }

// indexLine is one physical line with its byte offset.
type indexLine struct {
	text string
	off  int64
	// num is the 1-based line number.
	num int
	// torn marks the final line of a file that does not end in a
	// newline: the Appender terminates every record with one, so a
	// missing terminator means the write was interrupted mid-line.
	torn bool
}

func splitIndexLines(data []byte) []indexLine {
	var lines []indexLine
	start := 0
	num := 1
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			lines = append(lines, indexLine{text: string(data[start:i]), off: int64(start), num: num})
			start = i + 1
			num++
		}
	}
	if start < len(data) {
		lines = append(lines, indexLine{text: string(data[start:]), off: int64(start), num: num, torn: true})
	}
	return lines
}

// scanIndex scans the contents of artifact (a corpus.index file).
func scanIndex(artifact string, data []byte) *scannedIndex {
	sc := &scannedIndex{tailOffset: int64(len(data))}
	addErr := func(line int, rule, format string, args ...interface{}) {
		sc.diags = append(sc.diags, vd(artifact, line, rule, diag.SevError, format, args...))
	}
	tornTail := func(line indexLine, what string) {
		sc.diags = append(sc.diags, vd(artifact, line.num, "tail-truncated", diag.SevNote,
			"%s at line %d: recoverable interrupted append; truncate the index to %d bytes to recover",
			what, line.num, sc.tailOffset))
	}

	// An empty file or a strict prefix of the header line is what a crash
	// inside the first append leaves: nothing was committed, and the
	// Appender starts such an index over.
	if bytes.HasPrefix([]byte(indexHeader), data) {
		sc.tailOffset = 0
		tornTail(indexLine{num: 1}, "empty or torn header")
		return sc
	}
	lines := splitIndexLines(data)
	if header := lines[0]; header.text != indexHeader {
		addErr(header.num, "index-seq",
			"index header %q is not %q, the only version this build reads: regenerate the corpus with tracegen",
			header.text, indexHeader)
		sc.foreign = true
		return sc
	}

	seq := 0
	frames := 0
	// batch is the offset of the open batch's first line: its first
	// intern record, or its stream record.
	batch := int64(-1)
	i := 1
scan:
	for i < len(lines) {
		line := lines[i]
		if line.text == "" && !line.torn {
			// The loader skips blank lines, so one after the last whole
			// batch extends the valid prefix.
			if sc.tailOffset == line.off {
				sc.tailOffset = nextOffset(lines, i+1, int64(len(data)))
			}
			i++
			continue
		}
		if line.torn {
			sc.tailOffset = line.off
			if batch >= 0 {
				sc.tailOffset = batch
			}
			tornTail(line, "torn final record")
			batch = -1
			break
		}
		tag, fields, _ := strings.Cut(line.text, " ")
		if batch < 0 && (tag == "f" || tag == "k" || tag == "s") {
			batch = line.off
		}
		switch tag {
		case "f":
			if _, rest, err := cutQuoted(fields); err != nil || rest != "" {
				addErr(line.num, "index-seq", "frame record: want one quoted frame, got %q", fields)
			}
			frames++
			i++
			continue
		case "k":
			if problem := checkStackLine(fields, frames); problem != "" {
				addErr(line.num, "intern-ref", "stack record: %s", problem)
			}
			i++
			continue
		case "s":
		default:
			addErr(line.num, "index-seq", "expected a frame, stack or stream record, got %q", line.text)
			i++
			continue
		}
		m, ninst, gotSeq, perr := parseStreamLine(fields)
		if perr != "" {
			addErr(line.num, "index-seq", "stream record: %s", perr)
			batch = -1
			i++
			continue
		}
		if gotSeq != seq {
			addErr(line.num, "index-seq",
				"sequence number %d at record position %d (gap, reorder, or rewrite)", gotSeq, seq)
			// Resync on the file's own numbering so one gap reports once,
			// not once per following record.
			seq = gotSeq
		}
		m.File = streamFile(seq)
		i++
		for j := 0; j < ninst; j++ {
			if i >= len(lines) {
				sc.tailOffset = batch
				tornTail(line, "truncated instance list (clean end-of-file mid-record)")
				batch = -1
				break scan
			}
			il := lines[i]
			if il.torn {
				sc.tailOffset = batch
				tornTail(il, "torn instance record")
				batch = -1
				break scan
			}
			if !strings.HasPrefix(il.text, "i ") {
				addErr(il.num, "index-seq", "expected instance record %d of %q, got %q", j, m.File, il.text)
				batch = -1
				continue scan
			}
			in, perr := parseInstanceLine(il.text[2:])
			if perr != "" {
				addErr(il.num, "index-seq", "instance record: %s", perr)
				i++
				continue
			}
			m.Instances = append(m.Instances, in)
			i++
		}
		sc.metas = append(sc.metas, m)
		sc.tailOffset = nextOffset(lines, i, int64(len(data)))
		batch = -1
		seq++
	}
	if batch >= 0 {
		// Intern records with no stream record after them: the batch was
		// cut between lines.
		sc.tailOffset = batch
		tornTail(lines[len(lines)-1], "intern records with no stream record after them")
	}
	sc.usable = !hasErrors(sc.diags)
	return sc
}

// checkStackLine checks the fields of one "k" line after the tag: at
// least one frame ID, each naming one of the frames defined before it.
func checkStackLine(s string, frames int) string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return "empty stack"
	}
	for _, f := range fields {
		id, err := strconv.Atoi(f)
		if err != nil || id < 0 {
			return "bad frame id " + strconv.Quote(f)
		}
		if id >= frames {
			return fmt.Sprintf("names frame %d, but only %d are defined before it (dangling)", id, frames)
		}
	}
	return ""
}

// nextOffset returns the byte offset of line i, or total when past the
// last line.
func nextOffset(lines []indexLine, i int, total int64) int64 {
	if i < len(lines) {
		return lines[i].off
	}
	return total
}

// parseStreamLine parses the fields of one "s" line after the tag,
// returning a non-empty problem description on failure.
func parseStreamLine(s string) (m trace.StreamMeta, ninst, seq int, problem string) {
	field, s, _ := strings.Cut(s, " ")
	seq, err := strconv.Atoi(field)
	if err != nil {
		return m, 0, 0, "bad sequence number " + strconv.Quote(field)
	}
	if m.ID, s, err = cutQuoted(s); err != nil {
		return m, 0, 0, "stream id: " + err.Error()
	}
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return m, 0, 0, "want 3 numeric fields after the id, got " + strconv.Itoa(len(fields))
	}
	events, err := strconv.Atoi(fields[0])
	if err != nil || events < 0 {
		return m, 0, 0, "bad event count " + strconv.Quote(fields[0])
	}
	dur, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || dur < 0 {
		return m, 0, 0, "bad duration " + strconv.Quote(fields[1])
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil || n < 0 {
		return m, 0, 0, "bad instance count " + strconv.Quote(fields[2])
	}
	m.Events = events
	m.Duration = trace.Duration(dur)
	return m, n, seq, ""
}

// parseInstanceLine parses the fields of one "i" line after the tag.
func parseInstanceLine(s string) (in trace.Instance, problem string) {
	var err error
	if in.Scenario, s, err = cutQuoted(s); err != nil {
		return in, "scenario: " + err.Error()
	}
	if in.Scenario == "" {
		return in, "empty scenario name"
	}
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return in, "want 3 numeric fields after the scenario, got " + strconv.Itoa(len(fields))
	}
	tid, err := strconv.ParseInt(fields[0], 10, 32)
	if err != nil {
		return in, "bad tid " + strconv.Quote(fields[0])
	}
	start, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || start < 0 {
		return in, "bad start " + strconv.Quote(fields[1])
	}
	end, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || end < start {
		return in, "bad end " + strconv.Quote(fields[2])
	}
	in.TID = trace.ThreadID(tid)
	in.Start = trace.Time(start)
	in.End = trace.Time(end)
	return in, ""
}

// cutQuoted splits a Go-quoted string off the front of s.
func cutQuoted(s string) (string, string, error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", errBadQuoted(s)
	}
	v, err := strconv.Unquote(q)
	if err != nil {
		return "", "", errBadQuoted(q)
	}
	return v, strings.TrimPrefix(s[len(q):], " "), nil
}

type errBadQuoted string

func (e errBadQuoted) Error() string { return "bad quoted string in " + strconv.Quote(string(e)) }
