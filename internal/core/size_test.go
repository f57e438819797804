package core

import (
	"testing"
	"unsafe"

	"recyclesim/internal/alist"
	"recyclesim/internal/bpred"
)

// TestRecordSizes pins the sizes of the records the cycle loop copies
// and clears per instruction: an active-list entry per rename, a fetch
// queue entry per fetched instruction, a stream item per recycled one,
// and the branch prediction all three carry.  Their fields are ordered
// widest first so they pack without padding; a new field, or one that
// breaks the packing, shows up here as a size change to weigh, not as
// an unexplained slowdown.
func TestRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name        string
		size, limit uintptr
		exact       bool // the size must be the limit, not just within it
	}{
		{"alist.Entry", unsafe.Sizeof(alist.Entry{}), 128, false},
		{"bpred.Pred", unsafe.Sizeof(bpred.Pred{}), 24, true},
		{"core.fqEntry", unsafe.Sizeof(fqEntry{}), 80, false},
		{"core.streamItem", unsafe.Sizeof(streamItem{}), 80, false},
	} {
		switch {
		case r.exact && r.size != r.limit:
			t.Errorf("%s is %d bytes, want %d", r.name, r.size, r.limit)
		case r.size > r.limit:
			t.Errorf("%s is %d bytes, want at most %d", r.name, r.size, r.limit)
		}
	}
}
