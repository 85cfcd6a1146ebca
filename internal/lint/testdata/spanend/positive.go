// Positive fixtures: spans the conservative path walk cannot prove
// ended on every path.
package spanend

import "errors"

// earlyReturnLeaks bails out before the explicit End.
func earlyReturnLeaks(r recorder, fail bool) error {
	sp := r.Start("work") // want "span sp is not ended on all paths"
	if fail {
		return errors.New("bail")
	}
	sp.End()
	return nil
}

// oneBranchOnly ends the span in the then-branch and falls through
// un-ended in the else path.
func oneBranchOnly(r recorder, ok bool) {
	sp := r.Start("half") // want "span sp is not ended on all paths"
	if ok {
		sp.End()
	}
}

// endInsideLoop: an End inside a for statement cannot be proven to run
// (zero iterations), so the walk asks for defer.
func endInsideLoop(r recorder, n int) {
	sp := r.Start("loop") // want "span sp is not ended on all paths"
	for i := 0; i < n; i++ {
		sp.End()
	}
}

// neverEnded starts a span and forgets it entirely. The unused variable
// is a type error, which the loader tolerates by design — the analyzer
// still sees the span's type and object.
func neverEnded(r recorder) {
	sp := r.Start("forgotten") // want "span sp is never ended"
}

// blankedSpan silences the compiler with `_ = sp`, which is not an
// escape: nothing can end the span.
func blankedSpan(r recorder) {
	sp := r.Start("blanked") // want "span sp is never ended"
	_ = sp
}

// droppedStatement never holds the span at all.
func droppedStatement(r recorder) {
	r.Start("dropped") // want "span returned by r.Start is discarded"
}

// droppedBlank assigns the span straight to the blank identifier.
func droppedBlank(r recorder) {
	_ = r.Start("blank") // want "span returned by r.Start is discarded"
}
