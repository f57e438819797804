package sweep

import "sync/atomic"

// Progress mirrors the raw-atomic counter pattern atomicplain forbids:
// once a plain field is touched through a sync/atomic function, a
// plain access can sit next to the atomic ones, so every such call is
// a finding.  The typed wrapper cannot be accessed any other way and
// stays clean.  The sync/atomic import itself is fine here — this
// package sits on the concurrency allowlist.
type Progress struct {
	done  int64
	total atomic.Int64 // typed wrapper: never flagged
}

// Inc bumps the raw counter.
func (p *Progress) Inc() { atomic.AddInt64(&p.done, 1) } // want:atomicplain

// Done reports the completed count.
func (p *Progress) Done() int64 { return atomic.LoadInt64(&p.done) } // want:atomicplain

// Remaining uses the typed wrapper, which stays unflagged.
func (p *Progress) Remaining() int64 { return p.total.Load() - p.Done() }
