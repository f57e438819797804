package core

import (
	"recyclesim/internal/invariant"
	"recyclesim/internal/obs/pipetrace"
)

// SetPipeTrace attaches (or, with nil, detaches) a pipetrace recorder.
// The recorder receives one stage mark per pipeline stage each traced
// instruction enters; attach it before the first cycle for a complete
// record.
func (c *Core) SetPipeTrace(r *pipetrace.Recorder) { c.ptrace = r }

// PipeTrace returns the attached pipetrace recorder, or nil.
func (c *Core) PipeTrace() *pipetrace.Recorder { return c.ptrace }

// checkPipeTrace verifies, when a pipetrace recorder is attached, that
// every recorded stage timeline is a legal path through the pipeline
// DAG (rule "pipetrace"):
//
//   - every record renamed, and no stage precedes its predecessor
//     (fetch ≤ rename ≤ queue ≤ issue ≤ writeback, end after rename);
//   - recycled ⇔ no fetch stage (recycle injection bypasses
//     fetch/decode; everything else enters through the fetch queue);
//   - reused ⇒ recycled, and no queue/issue/writeback stage (the reuse
//     bypass adopts the previous result at rename);
//   - committed ⇒ a retire cycle and not squashed; squashed ⇒ a squash
//     cycle and not committed (and vice versa);
//   - committed instructions that execute (not reused, and
//     isa.Inst.Executes) have issue and writeback stages.
func (c *Core) checkPipeTrace(r *invariant.Report) {
	if c.ptrace != nil {
		recs := c.ptrace.Records()
		for i := range recs {
			rec := &recs[i]
			bad := func(format string, args ...any) {
				prefixed := append([]any{rec.ID, rec.Ctx, rec.Seq}, args...)
				r.Failf("pipetrace", "record %d (ctx=%d seq=%d): "+format, prefixed...)
			}
			if rec.Rename == 0 {
				bad("no rename stage")
				continue
			}
			if rec.Recycled && rec.Fetch != 0 {
				bad("recycled instruction has a fetch stage at cycle %d", rec.Fetch)
			}
			if !rec.Recycled && rec.Fetch == 0 {
				bad("fetched instruction missing its fetch stage")
			}
			if rec.Fetch > rec.Rename {
				bad("fetch at %d after rename at %d", rec.Fetch, rec.Rename)
			}
			if rec.Reused {
				if !rec.Recycled {
					bad("reused outside the recycle datapath")
				}
				if rec.Queue != 0 || rec.Issue != 0 || rec.Writeback != 0 {
					bad("reused instruction entered queue/issue/writeback (%d/%d/%d)",
						rec.Queue, rec.Issue, rec.Writeback)
				}
			}
			if rec.Queue != 0 && rec.Queue < rec.Rename {
				bad("queued at %d before rename at %d", rec.Queue, rec.Rename)
			}
			if rec.Issue != 0 && (rec.Queue == 0 || rec.Issue < rec.Queue) {
				bad("issued at %d without a preceding queue stage (queue=%d)", rec.Issue, rec.Queue)
			}
			if rec.Writeback != 0 && (rec.Issue == 0 || rec.Writeback < rec.Issue) {
				bad("writeback at %d without a preceding issue stage (issue=%d)", rec.Writeback, rec.Issue)
			}
			if rec.Committed != (rec.Retire != 0) {
				bad("committed=%v but retire cycle %d", rec.Committed, rec.Retire)
			}
			if rec.Squashed != (rec.Squash != 0) {
				bad("squashed=%v but squash cycle %d", rec.Squashed, rec.Squash)
			}
			if rec.Committed && rec.Squashed {
				bad("both committed and squashed")
			}
			if rec.Retire != 0 && rec.Retire < rec.Rename {
				bad("retired at %d before rename at %d", rec.Retire, rec.Rename)
			}
			if rec.Squash != 0 && rec.Squash < rec.Rename {
				bad("squashed at %d before rename at %d", rec.Squash, rec.Rename)
			}
			if rec.Committed && !rec.Reused && rec.Inst.Executes() && rec.Writeback == 0 {
				bad("committed without executing (op %v needs a functional unit)", rec.Inst.Op)
			}
		}
	}
}
