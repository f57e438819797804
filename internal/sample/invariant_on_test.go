//go:build siminvariant

package sample

// invariantEnabled reports whether the siminvariant build tag turned
// the cores' periodic invariant checker on; the checker allocates by
// design, so the allocation guard skips.
const invariantEnabled = true
