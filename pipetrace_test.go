package recyclesim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// pipetraceRun executes the reference configuration with the given
// tracer and returns the commit stream, the statistics, and the
// Prometheus metrics text — every externally visible output of the run.
func pipetraceRun(t *testing.T, tracer *PipeTracer) (commits string, res *Result, metrics string) {
	t.Helper()
	var sb strings.Builder
	tel := Telemetry{}
	res, err := Run(Options{
		Machine:   MachineByName("big.2.16"),
		Features:  PresetByName("REC/RS/RU"),
		Workloads: []string{"compress", "gcc"},
		MaxInsts:  20_000,
		CommitHook: func(ci CommitInfo) {
			fmt.Fprintf(&sb, "%d %d %#x %#x %t %t\n",
				ci.Program, ci.Ctx, ci.PC, ci.Result, ci.Taken, ci.Reused)
		},
		Telemetry: &tel,
		PipeTrace: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	if err := (&Snapshot{Stats: res, Metrics: &tel}).WriteText(&mb); err != nil {
		t.Fatal(err)
	}
	return sb.String(), res, mb.String()
}

// TestPipetraceNonPerturbation is the witness that tracing is pure
// observation: the commit stream, the statistics, and the metrics text
// of a run are byte-identical whether tracing is off, sampled 1-in-64,
// or recording every instruction.
func TestPipetraceNonPerturbation(t *testing.T) {
	baseCommits, baseRes, baseMetrics := pipetraceRun(t, nil)
	for _, mode := range []struct {
		name string
		cfg  PipeTraceConfig
	}{
		{"sampled64", PipeTraceConfig{SampleEvery: 64}},
		{"full", PipeTraceConfig{}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			commits, res, metrics := pipetraceRun(t, NewPipeTracer(mode.cfg))
			if commits != baseCommits {
				t.Error("commit stream differs from the untraced run")
			}
			if !reflect.DeepEqual(res, baseRes) {
				t.Errorf("statistics differ from the untraced run:\n  traced: %+v\nuntraced: %+v", res, baseRes)
			}
			if metrics != baseMetrics {
				t.Error("metrics text differs from the untraced run")
			}
		})
	}
}

// chromeInst is one instruction reassembled from the Chrome trace: its
// outer-span flags and the set of nested span names.
type chromeInst struct {
	recycled, reused bool
	spans            map[string]bool
}

// parseChrome groups the trace's per-instruction events by async id.
func parseChrome(t *testing.T, raw []byte) map[uint64]*chromeInst {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			ID   *uint64 `json:"id"`
			Args *struct {
				Recycled *bool `json:"recycled"`
				Reused   *bool `json:"reused"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	insts := make(map[uint64]*chromeInst)
	for _, e := range doc.TraceEvents {
		if e.Cat != "inst" || e.ID == nil {
			continue
		}
		ci := insts[*e.ID]
		if ci == nil {
			ci = &chromeInst{spans: make(map[string]bool)}
			insts[*e.ID] = ci
		}
		if e.Args != nil && e.Args.Recycled != nil {
			ci.recycled = *e.Args.Recycled
			ci.reused = *e.Args.Reused
		}
		if e.Ph == "b" {
			ci.spans[e.Name] = true
		}
	}
	return insts
}

// TestPipetraceAcceptance is the PR's acceptance criterion: a full
// pipetrace of a recycling run, exported as Chrome trace JSON, shows at
// least one recycled instruction with no fetch span and at least one
// reused instruction with no execute span — and identical-seed runs
// produce byte-identical trace files in both formats.
func TestPipetraceAcceptance(t *testing.T) {
	runTrace := func() (*PipeTracer, []byte, []byte, *Result) {
		tracer := NewPipeTracer(PipeTraceConfig{})
		res, err := Run(Options{
			Machine:   MachineByName("big.2.16"),
			Features:  PresetByName("REC/RS/RU"),
			Workloads: []string{"compress"},
			MaxInsts:  20_000,
			PipeTrace: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		var chrome, konata bytes.Buffer
		if err := tracer.WriteChrome(&chrome, res.Cycles); err != nil {
			t.Fatal(err)
		}
		if err := tracer.WriteKonata(&konata, res.Cycles); err != nil {
			t.Fatal(err)
		}
		return tracer, chrome.Bytes(), konata.Bytes(), res
	}

	tracer, chrome, konata, _ := runTrace()
	insts := parseChrome(t, chrome)
	if len(insts) == 0 {
		t.Fatal("trace holds no instructions")
	}
	var recycledNoFetch, reusedNoExec int
	for _, ci := range insts {
		if ci.recycled && !ci.spans["fetch"] {
			recycledNoFetch++
		}
		if ci.recycled && ci.spans["fetch"] {
			t.Fatal("recycled instruction with a fetch span")
		}
		if ci.reused && !ci.spans["execute"] {
			reusedNoExec++
		}
		if ci.reused && ci.spans["execute"] {
			t.Fatal("reused instruction with an execute span")
		}
	}
	if recycledNoFetch == 0 || reusedNoExec == 0 {
		t.Fatalf("trace shows %d recycled (no fetch) and %d reused (no execute) instructions; want both > 0",
			recycledNoFetch, reusedNoExec)
	}
	if tracer.TruncatedRecords() != 0 {
		t.Logf("note: %d records truncated at the cap", tracer.TruncatedRecords())
	}

	// The digest pins the export across commits, not just across two
	// runs in one process.
	const wantChrome = "731a7af84edad05acc18661f26b0b71363511ded5cb9635548bc5ca2efa4a463"
	if got := fmt.Sprintf("%x", sha256.Sum256(chrome)); got != wantChrome {
		t.Errorf("Chrome trace digest %s, want %s", got, wantChrome)
	}

	_, chrome2, konata2, _ := runTrace()
	if !bytes.Equal(chrome, chrome2) {
		t.Error("identical runs produced different Chrome trace files")
	}
	if !bytes.Equal(konata, konata2) {
		t.Error("identical runs produced different Konata trace files")
	}
}

// TestSnapshotHookDelivery pins the live-publication path the
// observability server feeds from: periodic snapshots arrive every
// 65,536 commits, the final snapshot matches the run's result, and the
// copies never alias each other.
func TestSnapshotHookDelivery(t *testing.T) {
	var snaps []*Snapshot
	res, err := Run(Options{
		Machine:      MachineByName("big.2.16"),
		Features:     PresetByName("REC/RS/RU"),
		Workloads:    []string{"compress"},
		MaxInsts:     140_000,
		SnapshotHook: func(sn *Snapshot) { snaps = append(snaps, sn) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("%d snapshots delivered, want periodic plus final", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Stats.Committed != res.Committed || last.Stats.Cycles != res.Cycles {
		t.Errorf("final snapshot (%d insts, %d cycles) disagrees with result (%d, %d)",
			last.Stats.Committed, last.Stats.Cycles, res.Committed, res.Cycles)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Stats == snaps[i-1].Stats || snaps[i].Metrics == snaps[i-1].Metrics {
			t.Fatal("snapshots alias each other; Publish requires private copies")
		}
		if snaps[i].Stats.Committed < snaps[i-1].Stats.Committed {
			t.Error("snapshot commit counts went backwards")
		}
	}
}
