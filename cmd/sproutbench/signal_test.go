package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
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
// the exact missing-index report, and — under -partial — exit 0. The test
// binary serves as the parent (and, transitively, its children) through
// the TestMain reroute.
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
		"-partial", "-duration", "6000s", "-parallel", "1")
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
		if err != nil {
			t.Fatalf("interrupted -partial sweep exited %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("parent never exited after %v\nstderr:\n%s", sig, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("interrupted")) {
		t.Fatalf("stderr does not report the interruption:\n%s", stderr.String())
	}
	if !bytes.Contains(stdout.Bytes(), []byte("partial: missing")) {
		t.Fatalf("stdout lacks the missing-index report:\nstdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}
