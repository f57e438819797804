package pipetrace

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
)

var addInst = isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3}

// renameN observes n renamed instructions with distinct PCs and
// sequence numbers, returning the handles.
func renameN(r *Recorder, n int) []Handle {
	hs := make([]Handle, n)
	for i := 0; i < n; i++ {
		hs[i] = r.OnRename(uint64(10+i), 0, uint64(i), uint64(0x1000+4*i), addInst, uint64(9+i), false)
	}
	return hs
}

func TestSamplingOneInN(t *testing.T) {
	for _, every := range []uint64{0, 1, 4} {
		r := New(Config{SampleEvery: every})
		renameN(r, 16)
		want := 16
		if every > 1 {
			want = 16 / int(every)
		}
		if got := len(r.Records()); got != want {
			t.Errorf("SampleEvery=%d: %d records, want %d", every, got, want)
		}
		if r.Seen() != 16 {
			t.Errorf("SampleEvery=%d: Seen()=%d, want 16", every, r.Seen())
		}
	}
	// The first instruction is always in the sample, so short runs
	// still produce a trace.
	r := New(Config{SampleEvery: 1000})
	renameN(r, 3)
	if len(r.Records()) != 1 {
		t.Errorf("sparse sampling: %d records, want 1 (the first)", len(r.Records()))
	}
}

func TestPCFilter(t *testing.T) {
	r := New(Config{PCMin: 0x1008, PCMax: 0x100c})
	renameN(r, 8) // PCs 0x1000..0x101c
	recs := r.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2 in [0x1008,0x100c]", len(recs))
	}
	for _, rec := range recs {
		if rec.PC < 0x1008 || rec.PC > 0x100c {
			t.Errorf("record PC %#x outside filter range", rec.PC)
		}
	}
}

func TestCycleWindow(t *testing.T) {
	r := New(Config{CycleMin: 12, CycleMax: 14})
	renameN(r, 8) // rename cycles 10..17
	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3 renamed in [12,14]", len(recs))
	}
	for _, rec := range recs {
		if rec.Rename < 12 || rec.Rename > 14 {
			t.Errorf("record renamed at %d outside window", rec.Rename)
		}
	}
	// Later stage marks of an in-window instruction land even past
	// CycleMax.
	h := Handle(1)
	r.OnCommit(h, 99)
	if rec := r.Records()[0]; !rec.Committed || rec.Retire != 99 {
		t.Errorf("post-window commit not recorded: %+v", rec)
	}
}

func TestRecordCapAndTruncation(t *testing.T) {
	r := New(Config{MaxRecords: 4})
	hs := renameN(r, 10)
	if len(r.Records()) != 4 {
		t.Fatalf("%d records, want cap 4", len(r.Records()))
	}
	if r.TruncatedRecords() != 6 {
		t.Errorf("TruncatedRecords()=%d, want 6", r.TruncatedRecords())
	}
	for i, h := range hs {
		if i < 4 && h != Handle(i+1) {
			t.Errorf("handle %d = %d, want %d", i, h, i+1)
		}
		if i >= 4 && h != 0 {
			t.Errorf("over-cap handle %d = %d, want 0", i, h)
		}
	}
}

func TestInstantCapAndTruncation(t *testing.T) {
	r := New(Config{MaxInstants: 2})
	for i := 0; i < 5; i++ {
		r.Instant(uint64(i), obs.StageFork, 0, 0x2000, 1)
	}
	if len(r.Instants()) != 2 {
		t.Errorf("%d instants, want cap 2", len(r.Instants()))
	}
	if r.TruncatedInstants() != 3 {
		t.Errorf("TruncatedInstants()=%d, want 3", r.TruncatedInstants())
	}
}

func TestUntracedHandleIsNoOp(t *testing.T) {
	r := New(Config{})
	renameN(r, 1)
	before := r.Records()[0]
	for _, h := range []Handle{0, -1} {
		r.OnQueue(h, 5)
		r.OnReuse(h)
		r.OnIssue(h, 5)
		r.OnWriteback(h, 5)
		r.OnCommit(h, 5)
		r.OnSquash(h, 5)
	}
	if after := r.Records()[0]; after != before {
		t.Errorf("untraced handle mutated record: %+v -> %+v", before, after)
	}
}

// committedRecorder builds a recorder holding one of each record shape
// the exporters must distinguish: fetched+committed, recycled+committed,
// recycled+reused, and fetched+squashed.
func committedRecorder() *Recorder {
	r := New(Config{})
	h := r.OnRename(10, 0, 0, 0x1000, addInst, 8, false)
	r.OnQueue(h, 11)
	r.OnIssue(h, 13)
	r.OnWriteback(h, 14)
	r.OnCommit(h, 15)

	h = r.OnRename(12, 1, 0, 0x1004, addInst, 0, true)
	r.OnQueue(h, 13)
	r.OnIssue(h, 14)
	r.OnWriteback(h, 15)
	r.OnCommit(h, 16)

	h = r.OnRename(14, 1, 1, 0x1008, addInst, 0, true)
	r.OnReuse(h)
	r.OnCommit(h, 17)

	h = r.OnRename(16, 2, 0, 0x100c, addInst, 15, false)
	r.OnQueue(h, 17)
	r.OnSquash(h, 19)

	r.Instant(12, obs.StageFork, 0, 0x1004, 1)
	r.Instant(20, obs.StageMerge, 1, 0x100c, 2)
	return r
}

func TestWriteChromeShapesAndDeterminism(t *testing.T) {
	r := committedRecorder()
	var a, b bytes.Buffer
	if err := r.WriteChrome(&a, 25); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChrome(&b, 25); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two WriteChrome calls on the same recorder differ")
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	count := func(name, ph string) int {
		n := 0
		for _, e := range doc.TraceEvents {
			if e.Name == name && e.Ph == ph {
				n++
			}
		}
		return n
	}
	// One fetched+committed and one fetched+squashed record have fetch
	// spans; the two recycled ones must not.
	if got := count("fetch", "b"); got != 2 {
		t.Errorf("%d fetch spans, want 2 (recycled records must have none)", got)
	}
	if got := count("recycle-inject", "n"); got != 2 {
		t.Errorf("%d recycle-inject instants, want 2", got)
	}
	// The reused record has no execute span: three records queued, only
	// two issued.
	if got := count("execute", "b"); got != 2 {
		t.Errorf("%d execute spans, want 2 (reused record must have none)", got)
	}
	if got := count("reuse-bypass", "n"); got != 1 {
		t.Errorf("%d reuse-bypass instants, want 1", got)
	}
	if got := count("commit", "n"); got != 3 {
		t.Errorf("%d commit instants, want 3", got)
	}
	if got := count("squash", "n"); got != 1 {
		t.Errorf("%d squash instants, want 1", got)
	}
	if got := count(obs.StageFork.String(), "i"); got != 1 {
		t.Errorf("%d fork lifecycle instants, want 1", got)
	}
}

// TestWriteChromeGolden pins the SHA-256 of committedRecorder's Chrome
// export at final cycle 25, so event order, field order and
// separators stay byte-identical across commits.
func TestWriteChromeGolden(t *testing.T) {
	const want = "7e3b8e1bc1461e8f53d5945b4444c60f3dbe8e82d5504e8f2f238754270f7b8a"
	var buf bytes.Buffer
	if err := committedRecorder().WriteChrome(&buf, 25); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("Chrome export digest %s, want %s", got, want)
	}
}

func TestWriteKonataShapeAndDeterminism(t *testing.T) {
	r := committedRecorder()
	var a, b bytes.Buffer
	if err := r.WriteKonata(&a, 25); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteKonata(&b, 25); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two WriteKonata calls on the same recorder differ")
	}
	out := a.String()
	if !strings.HasPrefix(out, "Kanata\t0004\n") {
		t.Fatalf("missing Kanata header, got %q", out[:min(len(out), 20)])
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	starts := map[string]int{}
	for _, l := range lines {
		if i := strings.IndexByte(l, '\t'); i > 0 {
			starts[l[:i]]++
		} else {
			starts[l]++
		}
	}
	if starts["I"] != 4 || starts["L"] != 4 {
		t.Errorf("want 4 I and 4 L lines, got I=%d L=%d", starts["I"], starts["L"])
	}
	if starts["R"] != 4 {
		t.Errorf("want 4 R (retire/flush) lines, got %d", starts["R"])
	}
	// The squashed record retires with flush flag 1.
	if !strings.Contains(out, "R\t3\t3\t1\n") {
		t.Errorf("squashed record's flush retirement missing from:\n%s", out)
	}
	// The reused record (id 2) opens a Ru stage and never opens Ex.
	if !strings.Contains(out, "S\t2\t0\tRu\n") {
		t.Errorf("reused record's Ru stage missing from:\n%s", out)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "S\t2\t") && strings.HasSuffix(l, "\tEx") {
			t.Errorf("reused record must not enter Ex: %q", l)
		}
	}
}
