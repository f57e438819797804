package jobs

import (
	"encoding/json"
	"reflect"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/store"
)

// TestCellSpecWireFormat pins the JSON a CellSpec travels as — in job
// requests and in the leases recycleworker receives — for a detailed
// cell and for sampled cells with a zero, a partial, and a full
// schedule, and decodes each pinned document back to the same spec.
// Zero schedule fields are omitted: they mean "simulator default", and
// clients written against the wire format send them that way.
func TestCellSpecWireFormat(t *testing.T) {
	const machine = `{"Name":"big.2.16","Contexts":8,"FetchThreads":2,"FetchWidth":16,"FetchBlock":8,` +
		`"RenameWidth":16,"CommitWidth":16,"IQInt":64,"IQFP":64,"IntUnits":12,"LSUnits":8,"FPUnits":6,` +
		`"ActiveList":64,"ExtraRegs":100,"CacheScale":1,"FrontEndLat":2}`
	const features = `{"TME":true,"Recycle":true,"Reuse":true,"Respawn":true,"AltPolicy":2,"AltLimit":32,` +
		`"TrustTrace":false,"InvariantEvery":0,"WatchdogCycles":0}`
	const head = `{"machine":` + machine + `,"features":` + features
	cell := func(names []string, insts uint64, samp *store.Sampling) CellSpec {
		return CellSpec{Machine: config.Big216(), Features: config.RECRSRU, Workloads: names, Insts: insts, Sampling: samp}
	}
	for _, tc := range []struct {
		name string
		spec CellSpec
		want string
	}{
		{"detailed", cell([]string{"compress"}, 1_000, nil),
			head + `,"workloads":["compress"],"insts":1000}`},
		{"sampled, zero schedule", cell([]string{"compress"}, 0, &store.Sampling{}),
			head + `,"workloads":["compress"],"sampling":{}}`},
		{"sampled, partial schedule", cell([]string{"compress"}, 20_000, &store.Sampling{Period: 4_000, Confidence: 0.99}),
			head + `,"workloads":["compress"],"insts":20000,"sampling":{"period":4000,"confidence":0.99}}`},
		{"sampled, full schedule", cell([]string{"compress", "gcc"}, 20_000,
			&store.Sampling{Period: 4_000, IntervalLen: 400, WarmupLen: 300, Confidence: 0.9}),
			head + `,"workloads":["compress","gcc"],"insts":20000,"sampling":{"period":4000,"interval":400,"warmup":300,"confidence":0.9}}`},
	} {
		got, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: wire JSON\n got %s\nwant %s", tc.name, got, tc.want)
		}
		var back CellSpec
		if err := json.Unmarshal([]byte(tc.want), &back); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(back, tc.spec) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, back, tc.spec)
		}
	}
}
