package killpoint

import "testing"

func TestParse(t *testing.T) {
	for _, v := range []string{"", "mid-round", "mid-round:", ":7", "mid-round:seven", "mid-round:7:1", "mid-round: 7"} {
		if got := parse(v); got != nil {
			t.Errorf("parse(%q) armed %+v, want nothing", v, *got)
		}
	}
	if got := parse("round-boundary:7"); got == nil || *got != (armed{"round-boundary", 7}) {
		t.Errorf(`parse("round-boundary:7") = %+v`, got)
	}
}

// TestMaybeReturnsUnlessAtTheArmedPoint: the firing case kills the process,
// so it is held by the kill cells of cmd/clasp's TestDeterminismContract.
func TestMaybeReturnsUnlessAtTheArmedPoint(t *testing.T) {
	defer func(was *armed) { target = was }(target)
	target = nil
	Maybe("mid-round", 7)
	target = &armed{"mid-round", 7}
	Maybe("mid-round", 8)
	Maybe("block-flush", 7)
}
