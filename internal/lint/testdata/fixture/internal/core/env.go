package core

import "os"

// Seed reads the environment.  No simulation root reaches it, so only
// the per-file half of determinism sees it.
func Seed() string { return os.Getenv("SEED") } // want:determinism
