package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"sprout/internal/harness"
	"sprout/internal/scenario"
)

// TestMain lets the test binary serve as the CLI: with SPROUTBENCH_CHILD
// set it runs main(), so the interrupt test below drives a real parent
// whose children are real processes.
func TestMain(m *testing.M) {
	if os.Getenv("SPROUTBENCH_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestShardParentInterruptPartial drives the real CLI: a supervised
// sweep interrupted by SIGINT, or by the SIGTERM that timeout(1) sends,
// must terminate its children, merge what their fsynced logs hold, print
// the exact missing-index list and the table of what merged, and exit 1.
// The test binary serves as the parent (and, transitively, its children)
// through the TestMain reroute.
func TestShardParentInterruptPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a supervised sweep and waits on signal delivery; skipped with -short")
	}
	t.Run("SIGINT", func(t *testing.T) { interruptPartial(t, syscall.SIGINT) })
	t.Run("SIGTERM", func(t *testing.T) { interruptPartial(t, syscall.SIGTERM) })
}

func interruptPartial(t *testing.T, sig syscall.Signal) {
	// No duration in the file: the CLI's -duration sets it, and a long
	// virtual duration keeps the sweep busy until the signal lands.
	spec := `{
	  "defaults": {"link": "Verizon LTE", "skip": "250ms", "seed": 7},
	  "scenarios": [
	    {"name": "cubic down", "scheme": "cubic"},
	    {"name": "sprout down", "scheme": "sprout"},
	    {"name": "cubic up", "scheme": "cubic", "direction": "up"},
	    {"name": "vegas down", "scheme": "vegas"}
	  ]
	}`
	scenarioPath := filepath.Join(t.TempDir(), "long.json")
	if err := os.WriteFile(scenarioPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0],
		"-scenario", scenarioPath, "-shards", "2", "-checkpoint", dir,
		"-duration", "6000s", "-parallel", "1")
	cmd.Env = append(os.Environ(), "SPROUTBENCH_CHILD=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Give the parent time to install its handler and launch children,
	// then interrupt mid-sweep. 6000 virtual seconds keep the children far
	// from done this early (an idle box simulates about 3000 of them in
	// the 600 ms below, so 600 s — the value this test once used — was
	// finished before the signal unless something else loaded the box).
	time.Sleep(600 * time.Millisecond)
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("interrupted sweep exited %v, want exit status 1\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("parent never exited after %v\nstderr:\n%s", sig, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("interrupted")) {
		t.Fatalf("stderr does not report the interruption:\n%s", stderr.String())
	}
	// The report must name exactly the jobs the checkpoint lacks, and the
	// table must list every job it holds.
	specs, _, err := loadScenarioSpecs(scenarioPath, harness.Options{Duration: 6000 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	results, missing, err := scenario.ReadCheckpoint(dir, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) == 0 {
		t.Fatalf("every job finished before the %v; nothing was interrupted", sig)
	}
	report := fmt.Sprintf("partial: missing %d of %d jobs: %v\n", len(missing), len(specs), missing)
	if !bytes.Contains(stdout.Bytes(), []byte(report)) {
		t.Fatalf("stdout lacks %q:\nstdout:\n%s\nstderr:\n%s", report, stdout.String(), stderr.String())
	}
	for _, r := range results {
		if !bytes.Contains(stdout.Bytes(), []byte(r.Spec.Label())) {
			t.Errorf("table lacks merged job %q:\n%s", r.Spec.Label(), stdout.String())
		}
	}
	for _, i := range missing {
		if label := specs[i].Label(); bytes.Contains(stdout.Bytes(), []byte(label)) {
			t.Errorf("table lists missing job %q:\n%s", label, stdout.String())
		}
	}
}
