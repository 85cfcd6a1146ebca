package trace

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// corpus.index format
//
// A header line "TSINDEX 5" followed, per stream, by one batch:
//
//	f <frame>                                     (one per frame new to the corpus)
//	k <frame id> …                                (one per stack new to the corpus)
//	s <seq> <id> <events> <duration_us> <ninstances>
//	i <scenario> <tid> <start_us> <end_us>        (ninstances lines)
//
// where <frame>, <id> and <scenario> are Go-quoted strings. The f and k
// lines are the corpus intern table: frames and stacks get global IDs in
// the order their lines appear, and a stack names its frames by those
// IDs. The s and i lines record everything instance enumeration,
// scenario listing and fast/slow threshold classification need, so none
// of them decode event payloads.
//
// The index is one append-only log. The Appender lands a stream by
// writing its file, streamFileName(seq), and then appending its batch in
// one write, never by rewriting earlier bytes. A batch is the commit
// unit: its f and k lines count only once its s line and instance lines
// are whole, so a torn append leaves a tail to cut, never an intern
// entry no stream references. <seq> must equal the record's zero-based
// position, which lets Reload verify that contract and detect a
// truncated or rewritten index instead of silently renumbering streams
// (EventIDs and InstanceRefs reference streams by index).
//
// Stream files are TSC4 columnar containers (codec_v4.go) whose frame
// and stack tables reference the intern table by global ID. This is the
// only on-disk corpus the package opens or writes. TSCP (codec.go), the
// same container with the stream's own tables, is the ingest wire
// format, never a file.

const (
	indexFile    = "corpus.index"
	indexMagic   = "TSINDEX"
	indexVersion = 5
	// indexHeader is the first line of every corpus.index (the magic and
	// indexVersion), written with a terminating newline.
	indexHeader = indexMagic + " 5"
)

// appendStreamRecord appends one stream record (the "s" line plus its
// "i" instance lines) to b.
func appendStreamRecord(b []byte, seq int, m StreamMeta) []byte {
	b = append(b, "s "...)
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, ' ')
	b = strconv.AppendQuote(b, m.ID)
	for _, v := range [...]int64{int64(m.Events), int64(m.Duration), int64(len(m.Instances))} {
		b = append(b, ' ')
		b = strconv.AppendInt(b, v, 10)
	}
	b = append(b, '\n')
	for _, in := range m.Instances {
		b = append(b, "i "...)
		b = strconv.AppendQuote(b, in.Scenario)
		for _, v := range [...]int64{int64(in.TID), int64(in.Start), int64(in.End)} {
			b = append(b, ' ')
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, '\n')
	}
	return b
}

// appendInternRecords appends an "f" line for every frame of t from
// frames on and a "k" line for every stack from stacks on.
func appendInternRecords(b []byte, t *InternTable, frames, stacks int) []byte {
	for _, f := range t.frames[frames:] {
		b = append(b, "f "...)
		b = strconv.AppendQuote(b, f)
		b = append(b, '\n')
	}
	for _, st := range t.stacks[stacks:] {
		b = append(b, 'k')
		for _, f := range st {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(f), 10)
		}
		b = append(b, '\n')
	}
	return b
}

// parseIndex parses corpus.index contents and returns the per-stream
// metadata and the intern table. Malformed input fails with
// ErrBadFormat rather than panicking or over-allocating.
func parseIndex(data string) ([]StreamMeta, *InternTable, error) {
	body, err := indexBody(data)
	if err != nil {
		return nil, nil, err
	}
	it := NewInternTable()
	metas, _, err := parseRecords(body, 0, it)
	return metas, it, err
}

// indexBody checks the header line and returns what follows it.
func indexBody(data string) (string, error) {
	header := data[:strings.IndexByte(data, '\n')+1]
	var rec IndexRecord
	if err := ParseIndexLine(header, -1, &rec); err != nil || rec.Tag != 'h' {
		// Name both the found and the supported version so an operator
		// pointing this binary at another build's corpus sees what to
		// regenerate instead of a bare mismatch.
		return "", fmt.Errorf(
			"%w: found %s but this build supports only index version %d; "+
				"regenerate the corpus with a matching tracegen",
			ErrBadFormat, describeIndexHeader(data), indexVersion)
	}
	return data[len(header):], nil
}

// parseRecords parses data as whole batches, stopping at the first
// error: the strict loop over ParseIndexLine behind OpenDir (the file
// after its header), OpenAppender, and Reload (the tail past the
// batches it knows). Sequence numbers must continue from base, and
// intern records are added to it. A batch must end in a whole stream
// record: intern records with none after them are a torn append. last
// is the offset in data of the final batch. On error it is cut back to
// what it held.
func parseRecords(data string, base int, it *InternTable) (metas []StreamMeta, last int, err error) {
	frames, stacks := it.NumFrames(), it.NumStacks()
	defer func() {
		if err != nil {
			it.truncate(frames, stacks)
			metas = nil
		}
	}()
	fail := func(err error) ([]StreamMeta, int, error) {
		return metas, 0, fmt.Errorf("%w: index record %d: %w", ErrBadFormat, base+len(metas), err)
	}
	rest := data
	// next cuts one line, with its newline if it has one, off rest.
	next := func() string {
		n := strings.IndexByte(rest, '\n') + 1
		if n == 0 {
			n = len(rest)
		}
		line := rest[:n]
		rest = rest[n:]
		return line
	}
	batch := -1 // offset of the open batch's first intern record
	var rec, in IndexRecord
	for rest != "" {
		start := len(data) - len(rest)
		line := next()
		if err := ParseIndexLine(line, len(it.frames), &rec); err != nil {
			return fail(err)
		}
		switch rec.Tag {
		case 0:
			continue
		case 'i':
			return fail(errUnexpectedRecord(line))
		case 'f':
			// Copied out: a table outlives the text it was read from (an
			// Appender keeps its table while it owns the directory), and
			// a substring would pin the whole index.
			it.frames = append(it.frames, strings.Clone(rec.Frame))
		case 'k':
			it.stacks = append(it.stacks, rec.Stack)
		case 's':
			if pos := base + len(metas); pos >= maxTableLen {
				return fail(errors.New("stream count too large"))
			} else if rec.Seq != pos {
				return fail(fmt.Errorf("sequence number %d at position %d (index truncated or rewritten?)", rec.Seq, pos))
			}
			m := rec.Stream
			m.Instances = make([]Instance, 0, prealloc(rec.NumInstances))
			for j := 0; j < rec.NumInstances; j++ {
				line := next()
				if !strings.HasSuffix(line, "\n") {
					return fail(fmt.Errorf("truncated instance list for %s", m.File))
				}
				err := ParseIndexLine(line, 0, &in)
				if in.Tag != 'i' {
					text, _ := cutLine(line)
					return fail(fmt.Errorf("expected instance record, got %q", text))
				}
				if err != nil {
					return fail(fmt.Errorf("instance %d: %w", j, err))
				}
				m.Instances = append(m.Instances, in.Instance)
			}
			if batch < 0 {
				batch = start
			}
			metas, last, batch = append(metas, m), batch, -1
			continue
		}
		if batch < 0 {
			batch = start
		}
	}
	if batch >= 0 {
		return fail(errors.New("intern records with no stream record after them (torn append?)"))
	}
	return metas, last, nil
}

// IndexRecord is one line of corpus.index as ParseIndexLine reads it:
// its Tag, and the fields of that kind.
type IndexRecord struct {
	// Tag is 'f', 'k', 's' or 'i'; 'h' for the header; 0 for a blank
	// line, or for a first line that is an unterminated prefix of the
	// header (a crash inside the first append committed nothing).
	Tag   byte
	Frame string    // f
	Stack []FrameID // k
	// An s record's own sequence number (the caller judges it), its
	// stream (File, named from Seq, ID, Events and Duration), and the
	// number of i records that follow it.
	Seq          int
	Stream       StreamMeta
	NumInstances int
	Instance     Instance // i
}

// ParseIndexLine parses one line of corpus.index, newline included,
// into rec, which it overwrites whole (so a loop over a log reuses one
// record and copies none): the log's one grammar, which the loader
// applies strictly and tracevet leniently. A line without its newline
// is an append torn inside it (its cut-short numbers could still
// parse), so it is an error; a carriage return before the newline is
// ignored. nframes is the number of frames the f records before the
// line define, or -1 for the file's first line, which must be the
// header.
//
// Every field rule is the parser's; the caller judges position: an s
// record's sequence number, and which kinds may follow which. Errors
// are plain descriptions (the loader wraps them in ErrBadFormat), and a
// k record naming an undefined frame matches ErrUndefinedRef. On error,
// Tag still names a line of a known kind.
func ParseIndexLine(line string, nframes int, rec *IndexRecord) (err error) {
	*rec = IndexRecord{}
	text, terminated := cutLine(line)
	if nframes < 0 {
		switch {
		case terminated && text == indexHeader:
			rec.Tag = 'h'
		case !terminated && noCommittedRecords(line):
		default:
			err = fmt.Errorf("index header %q is not %q, the only version this build reads",
				strings.TrimSuffix(line, "\n"), indexHeader)
		}
		return err
	}
	if !terminated {
		return fmt.Errorf("unterminated line %q (torn append?)", line)
	}
	if text == "" {
		return nil
	}
	// The tag is one byte, then a space (none when it is all the line).
	fields := ""
	if len(text) > 1 {
		if text[1] != ' ' {
			return errUnexpectedRecord(line)
		}
		fields = text[2:]
	}
	switch text[0] {
	case 'i':
		rec.Instance, err = parseInstanceRecord(fields)
	case 's':
		rec.Seq, rec.Stream, rec.NumInstances, err = parseStreamRecord(fields)
	case 'f':
		var rest string
		if rec.Frame, rest, err = cutQuoted(fields); err != nil {
			err = fmt.Errorf("frame: %v", err)
		} else if rest != "" {
			err = fmt.Errorf("trailing %q after frame", rest)
		}
	case 'k':
		rec.Stack, err = parseStackRecord(fields, nframes)
	default:
		return errUnexpectedRecord(line)
	}
	rec.Tag = text[0]
	return err
}

// cutLine returns an index line's text, without its newline and a
// carriage return before it, and whether it had the newline.
func cutLine(line string) (text string, terminated bool) {
	text = line
	if terminated = text != "" && text[len(text)-1] == '\n'; terminated {
		text = text[:len(text)-1]
	}
	if text != "" && text[len(text)-1] == '\r' {
		text = text[:len(text)-1]
	}
	return text, terminated
}

// errUnexpectedRecord rejects a line where a batch's next record must
// start.
func errUnexpectedRecord(line string) error {
	text, _ := cutLine(line)
	return fmt.Errorf("expected a frame, stack or stream record, got %q", text)
}

// noCommittedRecords reports whether data is empty or a strict prefix of
// the header line: what a crash inside the first append's header write
// leaves behind.
func noCommittedRecords(data string) bool {
	return strings.HasPrefix(indexHeader, data)
}

// describeIndexHeader says, for parseIndex's rejection, what data holds
// in place of the header line.
func describeIndexHeader(data string) string {
	// A header line torn before its newline, LF- or CRLF-ended.
	if strings.HasPrefix(indexHeader+"\r", data) {
		return "an empty or torn index header"
	}
	first, _, _ := strings.Cut(data, "\n")
	first = strings.TrimSuffix(first, "\r")
	if v, ok := strings.CutPrefix(first, indexMagic+" "); ok {
		if _, err := strconv.Atoi(v); err == nil {
			return "index version " + v
		}
	}
	return fmt.Sprintf("a headerless (version 1) or unrecognised index starting %q", first)
}

// parseStackRecord parses the fields of one "k" line (after the tag): a
// stack of at least one frame, each one of the nframes defined so far.
func parseStackRecord(s string, nframes int) ([]FrameID, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, errors.New("empty stack")
	}
	st := make([]FrameID, len(fields))
	for i, field := range fields {
		f, err := strconv.Atoi(field)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad frame id %q", field)
		}
		if f >= nframes {
			return nil, undefinedRef(fmt.Errorf("stack names frame %d, but %d are defined", f, nframes))
		}
		st[i] = FrameID(f)
	}
	return st, nil
}

// parseStreamRecord parses the fields of one "s" line (after the tag).
func parseStreamRecord(s string) (seq int, m StreamMeta, ninst int, err error) {
	field, s, _ := strings.Cut(s, " ")
	if seq, err = strconv.Atoi(field); err != nil {
		return 0, m, 0, fmt.Errorf("bad sequence number %q", field)
	}
	m.File = streamFileName(seq)
	if m.ID, s, err = cutQuoted(s); err != nil {
		return seq, m, 0, fmt.Errorf("stream id: %v", err)
	}
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return seq, m, 0, fmt.Errorf("want 3 numeric fields, got %d", len(fields))
	}
	var n [3]int64
	for i, f := range fields {
		if n[i], err = strconv.ParseInt(f, 10, 64); err != nil {
			return seq, m, 0, fmt.Errorf("bad number %q", f)
		}
	}
	if err := checkStreamRecord(n[0], Duration(n[1]), n[2]); err != nil {
		return seq, m, 0, err
	}
	m.Events = int(n[0])
	m.Duration = Duration(n[1])
	return seq, m, int(n[2]), nil
}

// parseInstanceRecord parses the fields of one "i" line (after the tag).
func parseInstanceRecord(s string) (Instance, error) {
	var in Instance
	var err error
	if in.Scenario, s, err = cutQuoted(s); err != nil {
		return in, fmt.Errorf("instance scenario: %v", err)
	}
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return in, fmt.Errorf("want 3 numeric fields, got %d", len(fields))
	}
	tid, err := strconv.ParseInt(fields[0], 10, 32)
	if err != nil {
		return in, fmt.Errorf("bad tid %q", fields[0])
	}
	start, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return in, fmt.Errorf("bad start %q", fields[1])
	}
	end, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return in, fmt.Errorf("bad end %q", fields[2])
	}
	in.TID = ThreadID(tid)
	in.Start = Time(start)
	in.End = Time(end)
	return in, checkInstanceRecord(in)
}

// checkStreamRecord and checkInstanceRecord are the rules an index
// record's fields obey. The parser applies them to what it reads and
// the Appender to what it is about to write, so every stream the
// Appender lands reads back.
func checkStreamRecord(events int64, dur Duration, ninst int64) error {
	switch {
	case events < 0 || events > maxTableLen:
		return fmt.Errorf("bad event count %d", events)
	case dur < 0:
		return fmt.Errorf("negative duration %d", dur)
	case ninst < 0 || ninst > maxTableLen:
		return fmt.Errorf("bad instance count %d", ninst)
	}
	return nil
}

func checkInstanceRecord(in Instance) error {
	switch {
	case in.Scenario == "":
		return errors.New("empty scenario name")
	case in.Start < 0:
		return fmt.Errorf("negative start %d", in.Start)
	case in.End < in.Start:
		return fmt.Errorf("end %d before start %d", in.End, in.Start)
	}
	return nil
}

// checkMeta applies the index record rules to what the Appender is
// about to write for a stream.
func checkMeta(m StreamMeta) error {
	if err := checkStreamRecord(int64(m.Events), m.Duration, int64(len(m.Instances))); err != nil {
		return err
	}
	for i, in := range m.Instances {
		if err := checkInstanceRecord(in); err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
	}
	return nil
}

// cutQuoted splits a Go-quoted string off the front of s, returning its
// unquoted value and the rest (with one separating space consumed).
func cutQuoted(s string) (string, string, error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", fmt.Errorf("bad quoted string in %q", s)
	}
	v, err := strconv.Unquote(q)
	if err != nil {
		return "", "", fmt.Errorf("bad quoted string %q", q)
	}
	return v, strings.TrimPrefix(s[len(q):], " "), nil
}
