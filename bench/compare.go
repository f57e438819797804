package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runCompare compares two sets of records (files written by -out): for
// every workload and end-to-end metric it prints each side's median
// and quartiles and a verdict against the metric's bound:
//
//   - worse: B's median is worse than A's by more than the bound;
//   - unresolved: either side's quartile spread is wider than the
//     bound, unless every B run is better, or every B run worse, than
//     every A run;
//   - better: B wins at least nine in ten of the pairs (A's i-th run
//     against B's i-th run of the workload) and the medians differ by
//     more than A's own quartile spread;
//   - unchanged: anything else.
//
// It also reports failed runs and stats digests that differ between the
// sides for one seed.  It exits 1 when any verdict is worse or
// unresolved or any run failed, and 2 when the sets come from
// different hosts or runs of different lengths.
func runCompare(spec *benchSpec, args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split <= 0 || split == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: -compare A.jsonl... -- B.jsonl...")
		return 2
	}
	a, err := readRecords(args[:split])
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("no untraced records in %s", strings.Join(args[:split], " "))
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRecords(args[split+1:])
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("no untraced records in %s", strings.Join(args[split+1:], " "))
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	host, seconds := a[0].Header.host(), a[0].Header.Seconds
	for _, rec := range append(append([]record(nil), a...), b...) {
		if h := rec.Header.host(); h != host {
			fmt.Fprintf(stderr, "bench: refusing to compare records from different hosts: %q and %q\n", host, h)
			return 2
		}
		if s := rec.Header.Seconds; s != seconds {
			fmt.Fprintf(stderr, "bench: refusing to compare runs of %g and %g seconds\n", seconds, s)
			return 2
		}
	}

	status := 0
	fmt.Fprintf(stdout, "host: %s\n", host)
	fmt.Fprintf(stdout, "%-13s %-16s %5s %10s %10s %10s   %5s %10s %10s %10s %7s  %s\n",
		"workload", "metric", "A.n", "A.q1", "A.med", "A.q3", "B.n", "B.q1", "B.med", "B.q3", "change", "verdict")
	for _, w := range spec.Workloads {
		ra, rb := byWorkload(a, w.Name), byWorkload(b, w.Name)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(stdout, "%-13s (no runs on %s)\n", w.Name, missingSide(ra, rb))
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-13s %-16s (not measured)\n", w.Name, m.Name)
				status = 1
				continue
			}
			v := verdict(m, va, vb)
			if v == "worse" || v == "unresolved" {
				status = 1
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Fprintf(stdout, "%-13s %-16s %5d %10.4g %10.4g %10.4g   %5d %10.4g %10.4g %10.4g %+6.1f%%  %s\n",
				w.Name, m.Name, len(va), a1, a2, a3, len(vb), b1, b2, b3, 100*(b2/a2-1), v)
		}
		for _, note := range runNotes(ra, rb) {
			fmt.Fprintf(stdout, "%-13s %s\n", w.Name, note)
			status = 1
		}
	}
	return status
}

func missingSide(ra, rb []record) string {
	if len(ra) == 0 {
		return "side A"
	}
	return "side B"
}

// readRecords reads every untraced record of the given files.
func readRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<26)
		for line := 1; sc.Scan(); line++ {
			if len(strings.TrimSpace(sc.Text())) == 0 {
				continue
			}
			var rec record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: %w", p, line, err)
			}
			if !rec.Traced {
				out = append(out, rec)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

func byWorkload(recs []record, w string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == w {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict applies the rules documented on runCompare to one metric.
func verdict(m metricSpec, va, vb []float64) string {
	// better(x, y) reports whether x is better than y.
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	a1, a2, a3 := quartiles(va)
	b1, b2, b3 := quartiles(vb)
	spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
	change := (b2 - a2) / a2 // > 0: B is higher
	worseBy := change
	if m.Better == "higher" {
		worseBy = -change
	}
	allBetter, allWorse := true, true
	for _, x := range vb {
		for _, y := range va {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	switch {
	case allBetter && worseBy < 0:
		return "better"
	case allWorse && worseBy > m.Bound:
		return "worse"
	case spreadA > m.Bound || spreadB > m.Bound:
		return "unresolved"
	case worseBy > m.Bound:
		return "worse"
	}
	wins, pairs := 0, min(len(va), len(vb))
	for i := 0; i < pairs; i++ {
		if better(vb[i], va[i]) {
			wins++
		}
	}
	if 10*wins >= 9*pairs && -worseBy*a2 > a3-a1 {
		return "better"
	}
	return "unchanged"
}

// runNotes reports failed runs and, for every seed both sides ran,
// simulated statistics that differ.
func runNotes(ra, rb []record) []string {
	var notes []string
	for side, recs := range map[string][]record{"A": ra, "B": rb} {
		for _, r := range recs {
			if r.Failed > 0 {
				notes = append(notes, fmt.Sprintf("side %s seed %d: %d of %d operations failed", side, r.Seed, r.Failed, r.Attempted))
			}
		}
	}
	digests := map[uint64]string{}
	for _, r := range ra {
		digests[r.Seed] = r.Digest
	}
	for _, r := range rb {
		if d, ok := digests[r.Seed]; ok && d != r.Digest {
			notes = append(notes, fmt.Sprintf("seed %d: stats_digest differs (%.12s vs %.12s)", r.Seed, d, r.Digest))
			delete(digests, r.Seed)
		}
	}
	sort.Strings(notes)
	return notes
}
