package main

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"sprout/internal/engine"
	"sprout/internal/trace"
)

// TestResolveShaping is the satellite contract for cellsim: every
// malformed source-flag combination yields a one-line error (for a
// non-zero exit), never a panic, and -gen resolves both directions to the
// streamed model.
func TestResolveShaping(t *testing.T) {
	cases := []struct {
		name    string
		args    shapingArgs
		wantErr string // substring, "" = success
	}{
		{name: "no sources at all", args: shapingArgs{}, wantErr: "need -down and -up"},
		{name: "down without up", args: shapingArgs{DownFile: "x.trace"}, wantErr: "need -down and -up"},
		{name: "unknown gen network", args: shapingArgs{Gen: "Carrier Pigeon"}, wantErr: "unknown network"},
		{name: "missing trace file", args: shapingArgs{DownFile: "/nonexistent/a.trace", UpFile: "/nonexistent/b.trace"}, wantErr: "no such file"},
		{name: "gen valid", args: shapingArgs{Gen: "Verizon LTE", Seed: 1}},
		{name: "gen matches case-insensitively", args: shapingArgs{Gen: "verizon lte", Seed: 1}},
		{name: "stream unknown network", args: shapingArgs{Gen: "Carrier Pigeon", DownFile: "/nonexistent/a.trace", UpFile: "/nonexistent/b.trace"}, wantErr: "unknown network"},
		{name: "gen wins over trace files", args: shapingArgs{Gen: "AT&T LTE", DownFile: "/nonexistent/a.trace", UpFile: "/nonexistent/b.trace", Seed: 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			down, up, err := resolveShaping(c.args)
			if c.wantErr != "" {
				if err == nil {
					t.Fatalf("got (%q, %q), want error containing %q", down.name, up.name, c.wantErr)
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
			if down.process == nil || up.process == nil || down.trace != nil || up.trace != nil {
				t.Fatal("-gen must resolve a streamed process per direction, and no trace")
			}
			if down.name == "" || up.name == "" {
				t.Fatal("resolved shaping must carry link names")
			}
			// Each direction streams the trace Generate draws from its
			// DeriveSeed, taken on the canonical name; the downlink's first
			// 2 s are checked.
			pair, _ := trace.LookupNetwork(c.args.Gen)
			if want := engine.DeriveSeed(c.args.Seed, pair.Name, "down"); down.seed != want {
				t.Fatalf("down seed %d, want %d", down.seed, want)
			}
			if want := engine.DeriveSeed(c.args.Seed, pair.Name, "up"); up.seed != want {
				t.Fatalf("up seed %d, want %d", up.seed, want)
			}
			tr := pair.Down.Generate(2*time.Second, rand.New(rand.NewSource(down.seed)))
			down.process.Reset(down.seed)
			for i, want := range tr.Opportunities {
				if got, ok := down.process.Next(); !ok || got != want {
					t.Fatalf("opportunity %d: stream %v, generated trace %v", i, got, want)
				}
			}
		})
	}
}
