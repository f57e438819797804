package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"recyclesim/internal/jobs"
	"recyclesim/internal/store"
)

// computeRemote is computeAll for -remote mode: the collected specs are
// submitted as they are, as one sweep, to a recycled job server, and
// each streamed result lands through the same per-cell finish the
// local path uses, so stdout is byte-identical to a local run.  The
// server keys and computes cells with the same Spec.Key and
// fleet.Execute, and serves repeats from its durable store — so a
// rerun of the same figure costs zero simulation.  Fault containment
// is per cell, like -keep-going: a failed cell comes back as an error
// record and prints as zeros while the rest of the sweep completes.
// traceOut, when non-empty, saves the job's Chrome trace_event JSON
// there after the sweep; the trace URL prints on stderr either way.
// token, when non-empty, authenticates against a server running with
// -token.
func computeRemote(ctx context.Context, r *runner, baseURL, token, traceOut string, stderr io.Writer) error {
	r.begin()
	client := jobs.NewClient(baseURL)
	client.Token = token
	st, err := client.Run(ctx, jobs.JobRequest{Cells: r.specs}, func(res jobs.CellResult) error {
		i := res.Index
		if i < 0 || i >= len(r.specs) {
			return fmt.Errorf("server sent cell index %d of %d", i, len(r.specs))
		}
		var err error
		if res.Error != "" {
			err = errors.New(res.Error)
		}
		if r.prog != nil {
			r.prog.StartCell(r.specs[i].Name())
		}
		r.finish(i, &store.Record{Stats: res.Stats, Metrics: res.Metrics, Sampled: res.Sampled}, res.Cached, err)
		return nil
	})
	if err != nil {
		return err
	}
	// One accounting line on stderr (stdout must stay byte-identical to
	// a local run); a rerun of an unchanged sweep shows computes=0.
	fmt.Fprintf(stderr, "experiments: remote: job=%s cells=%d hits=%d computes=%d failed=%d\n",
		st.ID, st.Cells, st.Hits, st.Computes, st.Failed)
	fmt.Fprintf(stderr, "experiments: remote: trace %s/jobs/%s/trace\n", baseURL, st.ID)
	if traceOut != "" {
		raw, err := client.FetchTrace(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("fetch trace: %w", err)
		}
		if err := os.WriteFile(traceOut, raw, 0o644); err != nil {
			return fmt.Errorf("save trace: %w", err)
		}
		fmt.Fprintf(stderr, "experiments: remote: trace saved to %s\n", traceOut)
	}
	r.collect = false
	return nil
}
