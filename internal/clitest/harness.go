// Package clitest is the end-to-end harness for the cmd/ binaries and
// the shared machinery behind every out-of-process test suite in the
// repo: commands are built once per test run, then driven through their
// real CLIs — pinned flags, golden stdout, exit codes — exactly as CI
// and a user would run them.
//
// The non-test surface of this package (build-once, deadline-bounded
// polling, file-backed daemon lifecycle) is deliberately importable so
// sibling harnesses reuse it instead of growing their own timing
// heuristics; internal/chaos drives whole fault-injection runs through
// it. Everything here is polling against observable state with an
// explicit deadline — never a fixed sleep sized to a lucky machine —
// so the suites stay honest under CI load.
package clitest

import (
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// DefaultWait bounds how long the harness polls for any readiness
// condition (a daemon's listening line, a gauge draining to zero)
// before giving up. Generous on purpose: a loaded CI runner can stall
// a freshly exec'd binary for seconds, and a bounded wait that fails
// honestly beats a short sleep that passes by luck.
const DefaultWait = 30 * time.Second

// PollInterval is the step between condition probes. Small enough that
// fast machines don't idle, large enough that a 30s worst case stays
// under ~15k probes.
const PollInterval = 2 * time.Millisecond

// WaitUntil polls cond every PollInterval until it returns true or
// timeout elapses, reporting whether the condition was met. cond runs
// on the calling goroutine, so it may capture testing state freely.
func WaitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(PollInterval)
	}
}

// WaitHealthy polls GET <baseURL>/healthz until it answers 200,
// returning an error when the deadline passes first. It is the HTTP
// readiness probe shared by the e2e and chaos suites.
func WaitHealthy(baseURL string, timeout time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	ok := WaitUntil(timeout, func() bool {
		resp, err := client.Get(baseURL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	if !ok {
		return fmt.Errorf("clitest: %s/healthz not healthy within %v", baseURL, timeout)
	}
	return nil
}

// BuildCmds builds the named package patterns (e.g. "./cmd/..." or
// "./cmd/sweepd") from moduleRoot into binDir, one binary per main
// package. Go's build cache makes repeated calls cheap, so every test
// binary that needs a real executable builds its own copy without
// coordinating with the others.
func BuildCmds(moduleRoot, binDir string, patterns ...string) error {
	if len(patterns) == 0 {
		patterns = []string{"./cmd/..."}
	}
	args := append([]string{"build", "-o", binDir + string(os.PathSeparator)}, patterns...)
	build := exec.Command("go", args...)
	build.Dir = moduleRoot
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("clitest: building %v: %v\n%s", patterns, err, out)
	}
	return nil
}

// WatchSources stats every non-test .go file under moduleRoot, skipping
// testdata, benchmark and dot directories. A package that builds
// binaries in a subprocess does not import their code, so the go
// command's test cache would report it "(cached)" after an edit to
// them; the go command keys the cache on the files a test touches, so
// calling this from a test makes such an edit rerun the package. Call
// it from a test, not TestMain: the go command records a test binary's
// file accesses only from m.Run on.
func WatchSources(moduleRoot string) error {
	return filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != moduleRoot && (name == "testdata" || name == "benchmark" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			_, err = os.Stat(path)
		}
		return err
	})
}

// Daemon is one out-of-process sweepd (or any binary with the same
// readiness convention): its stderr appends to a log file on disk, the
// harness polls that file for the readiness lines, and the process is
// driven through signals exactly as an operator or init system would.
//
// Writing the log to a file instead of a pipe is load-bearing twice
// over: the daemon can never block on a full pipe no matter how chatty
// it gets mid-test, and the complete log survives a SIGKILL for
// failure forensics (the chaos suite uploads it as a CI artifact).
type Daemon struct {
	Cmd      *exec.Cmd
	URL      string // base URL resolved from the readiness line
	DebugURL string // -debug-addr base URL, "" unless the flags asked for one
	LogPath  string // the stderr log file, shared across restarts

	logOffset int64 // file size when this incarnation started
}

// readinessMain and readinessDebug are the stderr lines the daemon
// prints once its listeners are bound; the resolved address follows
// the prefix.
const (
	readinessMain  = "sweepd: listening on "
	readinessDebug = "sweepd: debug listening on "
)

// StartDaemon launches bin with args, appending its stderr and stdout
// to logPath, and polls the log until the main readiness line appears
// (and the debug one, when args carry -debug-addr). The same logPath
// may be reused across restarts: each incarnation only scans the bytes
// it wrote itself. The process is killed and an error returned if it
// exits or stays silent past timeout.
func StartDaemon(bin, logPath string, timeout time.Duration, args ...string) (*Daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("clitest: opening daemon log: %v", err)
	}
	defer logf.Close()
	offset, err := logf.Seek(0, 2)
	if err != nil {
		return nil, err
	}

	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("clitest: starting %s: %v", bin, err)
	}
	d := &Daemon{Cmd: cmd, LogPath: logPath, logOffset: offset}

	wantDebug := false
	for _, a := range args {
		if a == "-debug-addr" || strings.HasPrefix(a, "-debug-addr=") {
			wantDebug = true
		}
	}
	exited := false
	WaitUntil(timeout, func() bool {
		tail := d.logSince()
		if addr, ok := lineAfter(tail, readinessDebug); ok {
			d.DebugURL = "http://" + addr
		}
		if addr, ok := lineAfter(tail, readinessMain); ok {
			d.URL = "http://" + addr
			return true
		}
		if !processAlive(cmd.Process.Pid) {
			// Crashed before readiness (bad flags, bind failure): reap it
			// and fail fast instead of burning the whole deadline.
			cmd.Wait()
			exited = true
			return true
		}
		return false
	})
	if d.URL == "" {
		if !exited {
			cmd.Process.Kill()
			cmd.Wait()
		}
		return nil, fmt.Errorf("clitest: %s produced no readiness line within %v; log tail:\n%s",
			bin, timeout, LogTail(logPath, 2048))
	}
	if wantDebug && d.DebugURL == "" {
		// The debug line prints before the main one, so it must be
		// present by now.
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("clitest: -debug-addr set but no debug readiness line; log tail:\n%s",
			LogTail(logPath, 2048))
	}
	return d, nil
}

// processAlive reports whether pid is still running (not exited, not a
// zombie). It reads /proc on Linux; anywhere /proc is absent it falls
// back to the kill-0 probe, which errs toward "alive" for unreaped
// children — the readiness deadline still bounds the wait.
func processAlive(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err == nil {
		// Field 3 (after the parenthesized comm, which may itself hold
		// spaces) is the state letter; Z means exited-but-unreaped.
		if i := strings.LastIndexByte(string(stat), ')'); i >= 0 && i+2 < len(stat) {
			return stat[i+2] != 'Z' && stat[i+2] != 'X'
		}
	}
	return syscall.Kill(pid, syscall.Signal(0)) == nil
}

// logSince reads this incarnation's slice of the log file. Errors read
// as an empty log: the poller simply tries again.
func (d *Daemon) logSince() string {
	f, err := os.Open(d.LogPath)
	if err != nil {
		return ""
	}
	defer f.Close()
	if _, err := f.Seek(d.logOffset, 0); err != nil {
		return ""
	}
	buf := make([]byte, 64*1024)
	n, _ := f.Read(buf)
	return string(buf[:n])
}

// lineAfter finds the first complete log line starting with prefix and
// returns the trimmed remainder. Only complete lines count — the
// daemon may have been scheduled out mid-write.
func lineAfter(text, prefix string) (string, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// LogTail returns up to max bytes from the end of path, for failure
// messages and artifacts.
func LogTail(path string, max int64) string {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Sprintf("(no log: %v)", err)
	}
	defer f.Close()
	size, err := f.Seek(0, 2)
	if err != nil {
		return ""
	}
	start := size - max
	if start < 0 {
		start = 0
	}
	f.Seek(start, 0)
	buf := make([]byte, size-start)
	n, _ := f.Read(buf)
	return string(buf[:n])
}

// Signal forwards sig to the daemon process.
func (d *Daemon) Signal(sig os.Signal) error { return d.Cmd.Process.Signal(sig) }

// Kill SIGKILLs the daemon and reaps it: the crash path, no drain.
func (d *Daemon) Kill() {
	d.Cmd.Process.Kill()
	d.Cmd.Wait()
}

// Shutdown SIGTERMs the daemon and waits for it to exit, returning the
// exit code. The drain contract says this must be 0 no matter what was
// in flight.
func (d *Daemon) Shutdown() (int, error) {
	if err := d.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return -1, err
	}
	err := d.Cmd.Wait()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), nil
	}
	if err != nil {
		return -1, err
	}
	return d.Cmd.ProcessState.ExitCode(), nil
}

// Running reports whether the process has not yet been reaped.
func (d *Daemon) Running() bool { return d.Cmd.ProcessState == nil }
