//go:build mutants

package sprout_test

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutants is the checked-in list of known blind spots, each closed by a
// named test: one exact source rewrite per row (from must occur exactly
// once in file), and the test that must fail once it is applied.
var mutants = []struct {
	name, file, from, to string
	pkg, test            string
}{
	{
		name: "an opportunity at the horizon counts",
		file: "internal/metrics/accumulator.go",
		from: "\tif at >= a.to {\n\t\treturn\n",
		to:   "\tif at > a.to {\n\t\treturn\n",
		pkg:  "internal/metrics", test: "TestOpportunityWindowIsHalfOpen",
	},
	{
		name: "the bounded cache keeps one entry past its limit",
		file: "internal/memo/memo.go",
		from: "len(c.entries) < c.limit",
		to:   "len(c.entries) <= c.limit",
		pkg:  "internal/memo", test: "TestBoundedCacheBuildsPastLimit",
	},
	{
		name: "a stale arrival draws loss before it is dropped",
		file: "internal/link/link.go",
		from: "\tcase gen != s.gen:\n\t\tl.dropsStale++\n\tcase l.cfg.LossRate > 0 && l.cfg.Rand.Float64() < l.cfg.LossRate:\n\t\tl.dropsLoss++\n",
		to:   "\tcase l.cfg.LossRate > 0 && l.cfg.Rand.Float64() < l.cfg.LossRate:\n\t\tl.dropsLoss++\n\tcase gen != s.gen:\n\t\tl.dropsStale++\n",
		pkg:  "internal/link", test: "TestStaleArrivalsDrawNoLoss",
	},
	{
		name: "an idle link skips the opportunity at the first arrival's instant",
		file: "internal/link/link.go",
		from: "for ok && at < horizon {",
		to:   "for ok && at <= horizon {",
		pkg:  "internal/link", test: "TestLinkAdmitMatchesPerArrivalEvents",
	},
	{
		name: "Figure 2's log bins reach 60 s",
		file: "internal/trace/stats.go",
		from: "stats.NewLogHistogram(0.05, 10_000, 120)",
		to:   "stats.NewLogHistogram(0.05, 60_000, 120)",
		pkg:  "internal/harness", test: "TestSuiteIsOneRun",
	},
	{
		name: "Compound loses its Windows 7 receive-window cap",
		file: "internal/scenario/schemes.go",
		from: "clockless(tcp.NewCompound), 170)",
		to:   "clockless(tcp.NewCompound), 0)",
		pkg:  "internal/harness", test: "TestSuiteIsOneRun",
	},
	{
		name: "the eight-column fold adds its tail into the second partial sum",
		file: "internal/core/gather_amd64.s",
		from: "\tVADDPD Y9, Y0, Y0 // the tail goes into S0\n\tVADDPD Y10, Y1, Y1\n",
		to:   "\tVADDPD Y9, Y2, Y2 // the tail goes into S0\n\tVADDPD Y10, Y3, Y3\n",
		pkg:  "internal/core", test: "TestFoldOnFirstUseIsExact",
	},
	{
		name: "the bin-parallel table build stops clamping its CDF at 1",
		file: "internal/core/forecast.go",
		from: "\t\t\t\tif s > 1 {\n\t\t\t\t\ts = 1\n\t\t\t\t}\n",
		to:   "",
		pkg:  "internal/core", test: "TestBuildMatchesPerBin",
	},
	{
		name: "the live clock runs a Do before the events due by its wall instant",
		file: "internal/realtime/realtime.go",
		from: "\t\tcase fn := <-c.inbox:\n\t\t\tc.Run(time.Since(c.start))\n",
		to:   "\t\tcase fn := <-c.inbox:\n",
		pkg:  "internal/realtime", test: "TestDoRunsAfterDueEvents",
	},
	{
		name: "the live clock steps its loop without waiting for the wall clock",
		file: "internal/realtime/realtime.go",
		from: "\t\t\twake.Reset(at - time.Since(c.start))\n\t\t\tdue = wake.C\n\t\t}\n\t\tselect {\n\t\tcase <-due:\n\t\t\tc.Run(time.Since(c.start))\n",
		to:   "\t\t\twake.Reset(0 * at)\n\t\t\tdue = wake.C\n\t\t}\n\t\tselect {\n\t\tcase <-due:\n\t\t\tc.Step()\n",
		pkg:  "internal/realtime", test: "TestAfterFires",
	},
	{
		name: "the live clock's driver outlives its context",
		file: "internal/realtime/realtime.go",
		from: "\t\tcase <-c.ctx.Done():\n\t\t\treturn\n",
		to:   "",
		pkg:  "internal/realtime", test: "TestDriverStopsWithContext",
	},
	{
		name: "a tunnel endpoint builds its sender before its receiver",
		file: "internal/tunnel/endpoint.go",
		from: "\te.Receiver = transport.NewReceiver(transport.ReceiverConfig{\n\t\tFlow: cfg.Recv, Clock: cfg.Clock, Conn: cfg.Conn, Deliver: e.Egress.deliver, Pool: cfg.Pool,\n\t})\n\te.Sender = transport.NewSender(transport.SenderConfig{\n\t\tFlow: cfg.Send, Clock: cfg.Clock, Conn: cfg.Conn, Source: e.Ingress, Pool: cfg.Pool,\n\t})\n",
		to:   "\te.Sender = transport.NewSender(transport.SenderConfig{\n\t\tFlow: cfg.Send, Clock: cfg.Clock, Conn: cfg.Conn, Source: e.Ingress, Pool: cfg.Pool,\n\t})\n\te.Receiver = transport.NewReceiver(transport.ReceiverConfig{\n\t\tFlow: cfg.Recv, Clock: cfg.Clock, Conn: cfg.Conn, Deliver: e.Egress.deliver, Pool: cfg.Pool,\n\t})\n",
		pkg:  "internal/harness", test: "TestTunnelGoldenHash",
	},
	{
		name: "a tunnel endpoint routes on Packet.Flow, which a datagram off a socket leaves 0",
		file: "internal/tunnel/endpoint.go",
		from: "protocol.FlowOf(p.Payload)",
		to:   "p.Flow, len(p.Payload) >= protocol.HeaderSize",
		pkg:  "internal/e2e", test: "TestLiveTunnelOverUDP",
	},
	{
		name: "the receiver forecasts at the median",
		file: "internal/transport/receiver.go",
		from: "core.NewModel(core.Params{})",
		to:   "core.NewModel(core.Params{Confidence: 0.5})",
		pkg:  "internal/transport", test: "TestInWorldCalibration",
	},
}

// TestMutants copies the module to a temporary directory and, row by row,
// requires the row's test to pass on the copy as it is and to fail once
// the row's rewrite is applied. It shells out to the go command, so it is
// opt-in:
//
//	go test -tags mutants -run TestMutants .
func TestMutants(t *testing.T) {
	dir := t.TempDir()
	copyModule(t, dir)
	for _, m := range mutants {
		t.Run(m.test+"/"+m.name, func(t *testing.T) {
			path := filepath.Join(dir, m.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(orig), m.from); n != 1 {
				t.Fatalf("%s holds the rewrite's source %d times, want exactly once: update the row", m.file, n)
			}
			if out, err := goTest(dir, m.pkg, m.test); err != nil {
				t.Fatalf("%s fails without the rewrite: %v\n%s", m.test, err, out)
			}
			mutated := strings.Replace(string(orig), m.from, m.to, 1)
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(path, orig, 0o644)
			out, err := goTest(dir, m.pkg, m.test)
			if err == nil {
				t.Fatalf("the mutant survives: %s passes with the rewrite", m.test)
			}
			if !strings.Contains(out, "--- FAIL: "+m.test) {
				t.Fatalf("the mutant did not fail %s itself (a build error?):\n%s", m.test, out)
			}
		})
	}
}

// goTest runs one test of one package of the module copy in dir.
func goTest(dir, pkg, test string) (string, error) {
	cmd := exec.Command("go", "test", "-count=1", "-run", "^"+test+"$", "./"+pkg)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// copyModule copies every file of the module under dst, leaving out
// dot-directories such as .git.
func copyModule(t *testing.T, dst string) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, path), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, path), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
