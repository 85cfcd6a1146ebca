// Command tracepack re-packs a corpus directory into a new one, with or
// without flate compression of the event blocks. Re-packing is lossless
// — analysis output over the packed corpus is byte-identical, which
// cmd/tracepack's tests assert — and also drops the orphan stream files
// an interrupted append can leave behind.
//
// Streams are re-packed one at a time through the corpus appender, so
// corpora much larger than RAM pack fine.
//
// Usage:
//
//	tracepack -in DIR -out DIR [-compress]
package main

import (
	"flag"
	"fmt"
	"os"

	"tracescope/internal/trace"
)

func main() {
	var (
		in       = flag.String("in", "", "source corpus directory (required)")
		out      = flag.String("out", "", "destination directory for the packed corpus (required)")
		compress = flag.Bool("compress", false, "flate-compress event blocks (smaller, slower to decode)")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "tracepack: -in and -out are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := pack(*in, *out, *compress); err != nil {
		fmt.Fprintf(os.Stderr, "tracepack: %v\n", err)
		os.Exit(1)
	}
}

// pack streams every stream of the corpus at in through an appender at
// out. The destination must not already contain a corpus: appending a
// re-pack onto unrelated streams is never what anyone wants.
func pack(in, out string, compress bool) error {
	src, err := trace.OpenDir(in)
	if err != nil {
		return err
	}
	if _, err := os.Stat(out); err == nil {
		if _, err := trace.OpenDir(out); err == nil {
			return fmt.Errorf("%s already holds a corpus; pick an empty destination", out)
		}
	}
	app, err := trace.OpenAppender(out)
	if err != nil {
		return err
	}
	app.SetCompression(compress)
	var buf trace.Scratch // every stream is decoded into it, appended, and overwritten
	for i := 0; i < src.NumStreams(); i++ {
		s, err := src.StreamInto(i, &buf)
		if err != nil {
			return err
		}
		if _, err := app.Append(s); err != nil {
			return fmt.Errorf("appending stream %d: %w", i, err)
		}
	}

	inStats, err := trace.CollectDirStats(in)
	if err != nil {
		return err
	}
	outStats, err := trace.CollectDirStats(out)
	if err != nil {
		return err
	}
	inBytes := inStats.StreamBytes + inStats.IndexBytes
	outBytes := outStats.StreamBytes + outStats.IndexBytes
	fmt.Printf("packed %d streams (%d events): %d bytes -> %d bytes (%.1f%%)\n",
		src.NumStreams(), src.NumEvents(), inBytes, outBytes, 100*float64(outBytes)/float64(inBytes))
	return nil
}
