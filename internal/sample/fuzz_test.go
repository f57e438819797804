package sample

import (
	"bytes"
	"runtime"
	"testing"

	"recyclesim/internal/emu"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// FuzzCheckpointDecode drives DecodeBinary with arbitrary bytes.  The
// properties: decoding never panics, and whatever it accepts re-encodes
// to exactly the bytes it consumed, so the binary format has one
// spelling per checkpoint.  Seed corpus: the inputs of
// TestDecodeBinaryRejectsCorrupt — a valid checkpoint, bad magic,
// truncations at its structural boundaries, and an absurd delta count —
// plus a header that claims maxCkptWords words and ends.
func FuzzCheckpointDecode(f *testing.F) {
	p, err := workload.ByName("compress")
	if err != nil {
		f.Fatal(err)
	}
	e := emu.New(p)
	e.Run(1_000)
	var buf bytes.Buffer
	if err := Capture(e, program.NewMemory(p)).EncodeBinary(&buf); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add([]byte("NOTACKPT________"))
	for _, cut := range []int{4, len(ckptMagic) + 3, len(full) / 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	f.Add(deltaCountHeader(f, p.Name, p.Entry, ^uint64(0)))
	f.Add(deltaCountHeader(f, p.Name, p.Entry, maxCkptWords))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		cp, err := DecodeBinary(r)
		if err != nil {
			if cp != nil {
				t.Fatal("a failed decode returned a checkpoint")
			}
			return
		}
		var out bytes.Buffer
		if err := cp.EncodeBinary(&out); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("decoded checkpoint re-encodes differently:\n read %x\nwrote %x", consumed, out.Bytes())
		}
	})
}

// deltaCountHeader encodes an empty-delta checkpoint and patches its
// delta count (the final 8 bytes) to n, so the header promises n words
// that never follow.
func deltaCountHeader(tb testing.TB, name string, pc, n uint64) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := (&Checkpoint{Program: name, PC: pc}).EncodeBinary(&b); err != nil {
		tb.Fatal(err)
	}
	h := b.Bytes()
	for i := 0; i < 8; i++ {
		h[len(h)-8+i] = byte(n >> (8 * i))
	}
	return h
}

// A header that claims the largest legal delta but carries no words
// fails at the end of the stream without allocating for the claim
// (4 GiB of words before the bound was enforced lazily).
func TestDecodeBinaryTruncatedDeltaAllocs(t *testing.T) {
	hdr := deltaCountHeader(t, "compress", program.CodeBase, maxCkptWords)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBinary(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated delta accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("decoding a %d-byte header allocated %d bytes", len(hdr), n)
	}
}
