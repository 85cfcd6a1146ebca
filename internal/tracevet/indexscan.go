// A lenient, diagnosing corpus.index scanner. The production parser
// (trace.parseIndex) is strict by design: any fault rejects the whole
// corpus. The verifier needs the opposite — parse as far as the bytes
// allow, report every fault with its line number, and classify the
// failure mode. The crucial distinction is torn tail vs corruption:
// the Appender lands a stream's index record last and in one buffered
// write, so a crash can leave a partial final record (recoverable by
// truncating the index to the last record boundary) but can never
// corrupt committed records; anything malformed before the tail is
// real corruption. The scanner is an independent reimplementation of
// the documented format on purpose: a verifier that trusts the
// production parser inherits its bugs.

package tracevet

import (
	"bytes"
	"path/filepath"
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
const indexHeader = "TSINDEX 4"

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

	seen := make(map[string]bool)
	seq := 0
	i := 1
scan:
	for i < len(lines) {
		line := lines[i]
		if line.text == "" && !line.torn {
			i++
			continue
		}
		if line.torn {
			sc.tailOffset = line.off
			tornTail(line, "torn final record")
			break
		}
		if !strings.HasPrefix(line.text, "s ") {
			addErr(line.num, "index-seq", "expected a stream record, got %q", line.text)
			i++
			continue
		}
		m, ninst, gotSeq, perr := parseStreamLine(line.text[2:])
		if perr != "" {
			addErr(line.num, "index-seq", "stream record: %s", perr)
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
		checkEntryPath(m.File, seen, artifact, line.num, &sc.diags)
		recordStart := line.off
		i++
		for j := 0; j < ninst; j++ {
			if i >= len(lines) {
				sc.tailOffset = recordStart
				tornTail(line, "truncated instance list (clean end-of-file mid-record)")
				break scan
			}
			il := lines[i]
			if il.torn {
				sc.tailOffset = recordStart
				tornTail(il, "torn instance record")
				break scan
			}
			if !strings.HasPrefix(il.text, "i ") {
				addErr(il.num, "index-seq", "expected instance record %d of %q, got %q", j, m.File, il.text)
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
		seq++
	}
	sc.usable = !hasErrors(sc.diags)
	return sc
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
	if m.File, s, err = cutQuoted(s); err != nil {
		return m, 0, 0, "stream file: " + err.Error()
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

// checkEntryPath validates one index file entry the way the production
// parser does — non-empty, relative, confined to the corpus directory,
// unique — reporting violations instead of aborting. It returns whether
// the entry is safe to open.
func checkEntryPath(name string, seen map[string]bool, artifact string, line int, diags *[]diag.Diagnostic) bool {
	bad := func(format string, args ...interface{}) bool {
		*diags = append(*diags, vd(artifact, line, "index-seq", diag.SevError, format, args...))
		return false
	}
	if name == "" {
		return bad("empty file entry")
	}
	norm := strings.ReplaceAll(name, `\`, "/")
	if filepath.IsAbs(name) || strings.HasPrefix(norm, "/") ||
		(len(name) >= 2 && name[1] == ':') {
		return bad("absolute file entry %q", name)
	}
	for _, part := range strings.Split(norm, "/") {
		if part == "" || part == "." || part == ".." {
			return bad("path-escaping file entry %q", name)
		}
	}
	if seen[name] {
		return bad("duplicate file entry %q", name)
	}
	seen[name] = true
	return true
}
