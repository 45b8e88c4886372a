package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestResumeWithoutCheckpointIsUsageError: -resume with no -checkpoint has
// no journal to replay, so the campaign must refuse to start rather than
// silently re-execute every run.
func TestResumeWithoutCheckpointIsUsageError(t *testing.T) {
	if code := run("fig6", true, 300, 800, 0, "", "", 1, 0, "", true, ""); code != 2 {
		t.Fatalf("run(-resume, no -checkpoint) = %d, want 2", code)
	}
}

// TestUnknownExperimentIsUsageError: a bad -exp name exits 2 before the
// checkpoint journal is opened, so an existing journal is not truncated.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := os.WriteFile(ckpt, []byte("keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run("bogus", true, 300, 800, 0, "", "", 1, 0, ckpt, false, ""); code != 2 {
		t.Fatalf("run(-exp bogus) = %d, want 2", code)
	}
	if b, err := os.ReadFile(ckpt); err != nil || string(b) != "keep\n" {
		t.Fatalf("checkpoint after a bad -exp = %q (%v), want it untouched", b, err)
	}
}
