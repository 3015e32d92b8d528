// Package dispatch supervises multi-process sweeps: Supervise runs shard
// workers on a pool of hosts — child processes of this one, or remote
// machines behind a command template (ssh) — moves their checkpoint-log
// bytes back, retries and fails over what dies, and merges. The shard
// contract (pure ownership by global index, append-only JSONL checkpoint
// logs, byte-identical merge) already makes a shard's work
// location-independent, so all this package adds is a way to start the
// worker somewhere, stream its log home, and decide what to do when
// either fails. See DESIGN.md §10.
//
// The supervisor's side of the contract is the offset-based pull: the
// parent repeatedly asks a Transport for the worker log's bytes from the
// offset it has consumed so far, parses complete records out of each
// chunk, appends the new ones to a locally-durable mirror, and advances
// by exactly the parsed bytes. Torn chunk tails are re-pulled, replayed
// records deduplicate by index, and pull progress doubles as the worker's
// liveness signal. Every transport runs this one path; Supervise drives
// it.
package dispatch

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"sprout/internal/engine"
)

// Proc is one running shard worker, wherever it runs.
type Proc interface {
	// Done is closed once the worker has exited.
	Done() <-chan struct{}
	// Err is the worker's exit error, valid once Done is closed: nil on
	// success, otherwise an error whose ExitCode method (*exec.ExitError's,
	// for a process) reports the status, -1 for a kill.
	Err() error
	// Kill terminates the worker immediately.
	Kill() error
}

// Transport launches shard workers on named hosts and moves
// checkpoint-log bytes between them and the supervisor. Paths are in the
// host's filesystem namespace; the supervisor places every worker log at
// <dir>/host-<name>/shard-<i>.jsonl. Implementations must be safe for
// concurrent use — one supervisor drives many shards.
type Transport interface {
	// Start launches argv (argv[0] is the worker binary) on host with the
	// extra environment env, its stderr streamed to stderr. It returns as
	// soon as the worker is running.
	Start(ctx context.Context, host string, argv, env []string, stderr io.Writer) (Proc, error)
	// Pull reads the remote file at path from offset to EOF (best
	// effort). from is the absolute offset data begins at: a transport
	// may re-serve earlier bytes after a retry (from < offset) but must
	// never skip ahead (from > offset). A file that does not exist yet
	// reads as empty — the worker has not created its log, which is a
	// liveness question, not an I/O error.
	Pull(ctx context.Context, host, path string, offset int64) (data []byte, from int64, err error)
	// Push atomically replaces the remote file at path with data,
	// creating parent directories as needed — how every attempt seeds its
	// host with the shard's locally-durable checkpoint.
	Push(ctx context.Context, host, path string, data []byte) error
}

// hostLogPath is where shard's worker on host writes its checkpoint log:
// one directory per host under the sweep's checkpoint dir, so two hosts
// can hold the same shard's log (one stale, one live, across a failover)
// without colliding, and no worker log is ever the supervisor's mirror.
func hostLogPath(dir, host string, shard int) string {
	return filepath.Join(dir, "host-"+host, fmt.Sprintf("shard-%d.jsonl", shard))
}

// startLocal launches argv as a child process with env appended to the
// inherited environment.
func startLocal(_ context.Context, argv, env []string, stderr io.Writer) (Proc, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("dispatch: empty worker argv")
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = stderr
	return startCmd(cmd)
}

// cmdProc is a worker running as a child process. Its own goroutine
// waits on the process and closes done.
type cmdProc struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

func startCmd(cmd *exec.Cmd) (Proc, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &cmdProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *cmdProc) Done() <-chan struct{} { return p.done }
func (p *cmdProc) Err() error            { return p.err }
func (p *cmdProc) Kill() error           { return p.cmd.Process.Kill() }

// pullLocal reads a local file from offset. A missing file is an empty
// pull, and a file shorter than offset (replaced underneath us)
// re-serves from its start — from reports the truth either way.
func pullLocal(path string, offset int64) ([]byte, int64, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, offset, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if offset > int64(len(raw)) {
		offset = 0
	}
	return raw[offset:], offset, nil
}

// pushLocal atomically replaces a local file (temp + rename), creating
// its directory first.
func pushLocal(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".push*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("dispatch: push %s: write failed", path)
	}
	return os.Rename(tmp.Name(), path)
}

// CmdTransport runs workers through a user command template — the
// ssh/exec dispatch mode. The template is a space-separated command with
// two placeholders: {host} is replaced by the host name, and {exe} marks
// where the worker command line goes (appended if absent). Everything
// before {exe} is the remote-command prefix, which Pull and Push reuse
// to run small shell helpers (tail, cat) on the host — the remote side
// needs only a POSIX shell.
//
//	sproutbench -shards 6 -hosts a,b,c -transport "ssh {host} -- {exe}"
//
// Paths are used verbatim on the remote host: the checkpoint directory
// and the scenario file must resolve there (a shared filesystem, or the
// same layout staged on each host), and the worker binary named by the
// template must exist remotely. On a shared filesystem the worker logs
// (host-<name>/ subdirectories) and the supervisor's mirrors are
// distinct files.
type CmdTransport struct {
	template []string
}

// NewCmdTransport parses the template. It must be non-empty; {exe} is
// appended if missing.
func NewCmdTransport(template string) (*CmdTransport, error) {
	fields := strings.Fields(template)
	if len(fields) == 0 {
		return nil, fmt.Errorf("dispatch: empty transport template")
	}
	hasExe := false
	for _, f := range fields {
		if f == "{exe}" {
			hasExe = true
		}
	}
	if !hasExe {
		fields = append(fields, "{exe}")
	}
	return &CmdTransport{template: fields}, nil
}

// prefix renders the remote-command prefix for host: the template tokens
// before {exe}, with {host} substituted.
func (t *CmdTransport) prefix(host string) []string {
	var out []string
	for _, tok := range t.template {
		if tok == "{exe}" {
			break
		}
		out = append(out, strings.ReplaceAll(tok, "{host}", host))
	}
	return out
}

func (t *CmdTransport) Start(ctx context.Context, host string, argv, env []string, stderr io.Writer) (Proc, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("dispatch: empty worker argv")
	}
	// Environment rides as an env(1) prelude: the template's shell is on
	// the remote host, where the supervisor's own environ is meaningless.
	remote := t.prefix(host)
	if len(env) > 0 {
		remote = append(remote, "env")
		remote = append(remote, env...)
	}
	remote = append(remote, argv...)
	cmd := exec.CommandContext(ctx, remote[0], remote[1:]...)
	cmd.Stderr = stderr
	return startCmd(cmd)
}

func (t *CmdTransport) Pull(ctx context.Context, host, path string, offset int64) ([]byte, int64, error) {
	// tail -c +N is 1-based; a missing file (worker not started yet)
	// reads as empty rather than erroring.
	script := fmt.Sprintf("tail -c +%d %s 2>/dev/null || true",
		offset+1, shellQuote(path))
	remote := append(t.prefix(host), "sh", "-c", script)
	cmd := exec.CommandContext(ctx, remote[0], remote[1:]...)
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("dispatch: pull %s from %s: %w", path, host, err)
	}
	return out, offset, nil
}

func (t *CmdTransport) Push(ctx context.Context, host, path string, data []byte) error {
	script := fmt.Sprintf("mkdir -p %s && cat > %s.push && mv %s.push %s",
		shellQuote(filepath.Dir(path)), shellQuote(path), shellQuote(path), shellQuote(path))
	remote := append(t.prefix(host), "sh", "-c", script)
	cmd := exec.CommandContext(ctx, remote[0], remote[1:]...)
	cmd.Stdin = strings.NewReader(string(data))
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("dispatch: push %s to %s: %v (%s)", path, host, err, strings.TrimSpace(string(out)))
	}
	return nil
}

// shellQuote single-quotes s for the remote POSIX shell.
func shellQuote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}

// workerArgv completes a shard worker's command line: the caller's
// prefix (the sproutbench binary and the flags every shard shares) plus
// the flags that place this worker — its shard, its checkpoint log, the
// sweep seed and its engine width.
func workerArgv(prefix []string, shard engine.Shard, out string, seed int64, workers int) []string {
	return append(append([]string{}, prefix...),
		"-shard", shard.String(),
		"-out", out,
		"-seed", strconv.FormatInt(seed, 10),
		"-parallel", strconv.Itoa(workers),
	)
}
