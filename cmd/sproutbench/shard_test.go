package main

import (
	"flag"
	"io"
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
		name                           string
		in                             shardFlags
		wantErr                        string // substring, "" = success
		wantWorker, wantParent, wantAB bool
	}{
		{name: "default", wantErr: ""},
		{name: "worker", in: shardFlags{Shard: "1/4", Scenario: "s.json", Out: "x.jsonl"}, wantWorker: true},
		{name: "parent", in: shardFlags{Shards: 4, Scenario: "s.json", Stall: stall}, wantParent: true},
		{name: "parent checkpointed", in: shardFlags{Shards: 2, Scenario: "s.json", Checkpoint: "ck", Stall: stall}, wantParent: true},
		{name: "parent chaos", in: shardFlags{Shards: 2, Scenario: "s.json", Chaos: 7, Stall: stall}, wantParent: true},
		{name: "parent hosts", in: shardFlags{Shards: 2, Scenario: "s.json", Hosts: "a,b", Stall: stall}, wantParent: true},
		{name: "parent hosts transport", in: shardFlags{Shards: 2, Scenario: "s.json", Hosts: "a,b", Transport: "ssh {host} -- {exe}", Stall: stall}, wantParent: true},
		{name: "single shard is direct", in: shardFlags{Shards: 1, Scenario: "s.json"}},
		{name: "ab", in: shardFlags{AB: "a.json,b.json"}, wantAB: true},
		{name: "ab sharded", in: shardFlags{AB: "a.json,b.json", Shards: 4}, wantErr: "mutually exclusive"},
		{name: "ab vs one shard", in: shardFlags{AB: "a.json,b.json", Shards: 1}, wantErr: "mutually exclusive"},

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
		{name: "chaos in ab", in: shardFlags{AB: "a.json,b.json", Shards: 2, Chaos: 7}, wantErr: "parent mode"},
		{name: "ab wants two files", in: shardFlags{AB: "a.json"}, wantErr: "exactly two"},
		{name: "ab three files", in: shardFlags{AB: "a,b,c"}, wantErr: "exactly two"},
		{name: "ab empty side", in: shardFlags{AB: "a.json,"}, wantErr: "exactly two"},
		{name: "ab vs shard", in: shardFlags{AB: "a.json,b.json", Shard: "0/2"}, wantErr: "mutually exclusive"},
		{name: "ab vs scenario", in: shardFlags{AB: "a.json,b.json", Scenario: "s.json"}, wantErr: "-ab replaces -scenario"},
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
			if got := mode.Shards > 1 && mode.variants == nil; got != c.wantParent {
				t.Errorf("parent mode = %v, want %v", got, c.wantParent)
			}
			if got := len(mode.variants) == 2; got != c.wantAB {
				t.Errorf("ab mode = %v, want %v", got, c.wantAB)
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

func TestVerdict(t *testing.T) {
	v := func(tput, delay float64) abVariant {
		return abVariant{TputP: []float64{tput, tput, tput}, DelayP: []float64{delay, delay, delay}}
	}
	cases := []struct {
		a, b abVariant
		want string
	}{
		{v(1100, 90), v(1000, 100), "A wins"},
		{v(900, 110), v(1000, 100), "B wins"},
		{v(1100, 110), v(1000, 100), "mixed"},
		{v(1000, 100), v(1000, 100), "tie"},
		{v(1100, 100), v(1000, 100), "A wins"}, // delay tied, throughput decides
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b); !strings.Contains(got, c.want) {
			t.Errorf("verdict(%v, %v) = %q, want %q", c.a.TputP[0], c.b.TputP[0], got, c.want)
		}
	}
}
