package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"sprout/internal/engine"
)

// TestParseShardFlags is the satellite contract: every malformed flag
// combination yields a one-line error (for exit 2), never a panic, and
// the valid combinations select the right mode.
func TestParseShardFlags(t *testing.T) {
	const stall = 2 * time.Minute // the flag's default
	cases := []struct {
		name                   string
		in                     shardFlags
		wantErr                string // substring, "" = success
		wantWorker, wantParent bool
	}{
		{name: "default", wantErr: ""},
		{name: "worker", in: shardFlags{Shard: "1/4", Scenario: "s.json", Out: "x.jsonl"}, wantWorker: true},
		{name: "parent", in: shardFlags{Shards: 4, Scenario: "s.json", Stall: stall}, wantParent: true},
		{name: "parent checkpointed", in: shardFlags{Shards: 2, Scenario: "s.json", Checkpoint: "ck", Stall: stall}, wantParent: true},
		{name: "parent chaos", in: shardFlags{Shards: 2, Scenario: "s.json", Chaos: 7, Stall: stall}, wantParent: true},
		{name: "parent hosts", in: shardFlags{Shards: 2, Scenario: "s.json", Hosts: "a,b", Stall: stall}, wantParent: true},
		{name: "parent hosts transport", in: shardFlags{Shards: 2, Scenario: "s.json", Hosts: "a,b", Transport: "ssh {host} -- {exe}", Stall: stall}, wantParent: true},
		{name: "single shard is direct", in: shardFlags{Shards: 1, Scenario: "s.json"}},

		{name: "bad shard syntax", in: shardFlags{Shard: "nope", Scenario: "s.json"}, wantErr: "shard"},
		{name: "shard out of range", in: shardFlags{Shard: "4/4", Scenario: "s.json"}, wantErr: "outside"},
		{name: "shard needs scenario", in: shardFlags{Shard: "0/2"}, wantErr: "-scenario is required"},
		{name: "worker stdout", in: shardFlags{Shard: "0/2", Scenario: "s.json"}, wantErr: "-out is required"},
		{name: "shard vs shards", in: shardFlags{Shard: "0/2", Shards: 2, Scenario: "s.json"}, wantErr: "mutually exclusive"},
		{name: "negative shards", in: shardFlags{Shards: -1}, wantErr: ">= 0"},
		{name: "negative stall", in: shardFlags{Shards: 2, Scenario: "s.json", Stall: -time.Second}, wantErr: "-stall"},
		{name: "zero stall", in: shardFlags{Shards: 2, Scenario: "s.json"}, wantErr: "-stall must be positive"},
		{name: "shards need scenario", in: shardFlags{Shards: 2}, wantErr: "-scenario is required"},
		{name: "chaos needs parent", in: shardFlags{Scenario: "s.json", Chaos: 7}, wantErr: "parent mode"},
		{name: "chaos in worker", in: shardFlags{Shard: "0/2", Scenario: "s.json", Chaos: 7}, wantErr: "parent mode"},
		{name: "checkpoint needs parent", in: shardFlags{Scenario: "s.json", Checkpoint: "ck"}, wantErr: "parent mode"},
		{name: "checkpoint in worker", in: shardFlags{Shard: "0/2", Scenario: "s.json", Out: "x.jsonl", Checkpoint: "ck"}, wantErr: "parent mode"},
		{name: "checkpoint with one shard", in: shardFlags{Shards: 1, Scenario: "s.json", Checkpoint: "ck"}, wantErr: "parent mode"},
		{name: "hosts need parent", in: shardFlags{Scenario: "s.json", Hosts: "a,b"}, wantErr: "parent mode"},
		{name: "hosts in worker", in: shardFlags{Shard: "0/2", Scenario: "s.json", Hosts: "a"}, wantErr: "parent mode"},
		{name: "transport needs parent", in: shardFlags{Scenario: "s.json", Transport: "ssh {host} {exe}"}, wantErr: "parent mode"},
		{name: "transport needs hosts", in: shardFlags{Shards: 2, Scenario: "s.json", Transport: "ssh {host} {exe}"}, wantErr: "-hosts is required"},
		{name: "empty host name", in: shardFlags{Shards: 2, Scenario: "s.json", Hosts: "a,,b"}, wantErr: "empty host"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mode := c.in
			err := parseShardFlags(&mode)
			if c.wantErr != "" {
				if err == nil {
					t.Fatalf("got mode %+v, want error containing %q", mode, c.wantErr)
				}
				if !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error %q does not contain %q", err, c.wantErr)
				}
				if strings.Contains(err.Error(), "\n") {
					t.Fatalf("error %q is not one line", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := mode.worker != nil; got != c.wantWorker {
				t.Errorf("worker mode = %v, want %v", got, c.wantWorker)
			}
			if got := mode.Shards > 1; got != c.wantParent {
				t.Errorf("parent mode = %v, want %v", got, c.wantParent)
			}
		})
	}
}

func TestParseShardFlagsWorkerFields(t *testing.T) {
	mode := shardFlags{Shard: "2/3", Scenario: "s.json", Out: "out.jsonl"}
	if err := parseShardFlags(&mode); err != nil {
		t.Fatal(err)
	}
	if *mode.worker != (engine.Shard{Index: 2, Count: 3}) {
		t.Fatalf("shard = %v, want 2/3", mode.worker)
	}
	if mode.Out != "out.jsonl" {
		t.Fatalf("out = %q", mode.Out)
	}
}

// TestParseShardFlagsParentDefaults: parent mode's supervision knobs are
// the flags' own defaults, with no zero-means-default rewrite, and the
// retry budget, rescue and deadline are not flags at all.
func TestParseShardFlagsParentDefaults(t *testing.T) {
	parse := func(args ...string) (*shardFlags, error) {
		fs := flag.NewFlagSet("sproutbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		mode := bindShardFlags(fs)
		return mode, fs.Parse(args)
	}
	mode, err := parse("-shards", "2", "-scenario", "s.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := parseShardFlags(mode); err != nil {
		t.Fatal(err)
	}
	if mode.Stall != 2*time.Minute {
		t.Fatalf("Stall = %v, want default 2m", mode.Stall)
	}
	for _, gone := range []string{"-retries=5", "-rescue=false", "-timeout=1m"} {
		if _, err := parse(gone); err == nil {
			t.Errorf("%s parsed; the flag should not exist", gone)
		}
	}
}

// TestParseShardFlagsDispatchFields: the remote-dispatch knobs reach the
// mode struct with host names trimmed of the whitespace a hand-typed
// -hosts list accumulates.
func TestParseShardFlagsDispatchFields(t *testing.T) {
	mode := shardFlags{
		Shards: 2, Scenario: "s.json", Stall: time.Minute,
		Hosts: " alpha , beta,gamma ", Transport: "ssh {host} -- {exe}",
	}
	if err := parseShardFlags(&mode); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(mode.pool, "|"), "alpha|beta|gamma"; got != want {
		t.Fatalf("hosts = %q, want %q", got, want)
	}
	if mode.Transport != "ssh {host} -- {exe}" {
		t.Fatalf("transport = %q", mode.Transport)
	}
}

// TestTracePairUsage: -down/-up name a trace pair to run instead of the
// suite, so beside a -scenario grid or a sharded mode they are a one-line
// usage error (exit 2), never silently dropped. The test binary serves as
// the CLI through the TestMain reroute; the files need not exist, since
// the check precedes any load.
func TestTracePairUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "x.json", "-down", "a", "-up", "b"},
		{"-scenario", "x.json", "-down", "a"},
		{"-scenario", "x.json", "-shard", "0/2", "-out", "x.jsonl", "-down", "a", "-up", "b"},
		{"-scenario", "x.json", "-shards", "2", "-down", "a", "-up", "b"},
		{"-shards", "1", "-down", "a", "-up", "b"},
		{"-down", "a"},
		{"-up", "b"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "SPROUTBENCH_CHILD=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exited %v, want exit status 2\nstderr:\n%s", args, err, stderr.String())
			continue
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-down") || stdout.Len() != 0 {
			t.Errorf("%v: want one usage line naming -down and no output, got stderr %q, stdout %q", args, msg, stdout.String())
		}
	}
}
