// Package rankio is the control plane of the process transport
// (internal/netrun; DESIGN.md "Control plane"), whatever a world's placement:
// the coordinator a launcher runs over a TCP listener or the streams its
// ranks inherit (coord.go: one event loop that reads every control stream
// from its first byte, so a silent connection holds no world's start and a
// spawned rank that exits before JOIN is named at once), the client a rank
// embeds over any connection (client.go), the
// one parser of the lines they exchange (ctlline.go) and the process
// plumbing beneath — worker spawning with per-process output tagging,
// idempotent exit-status reaping, and the error type that carries a failing
// worker's exit code up to cmd/fompi-run.
package rankio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
)

// Logf writes one tagged diagnostic line to stderr: "tag[pid N]: message".
// It is the shared logger for worker- and launcher-side diagnostics (join
// progress, rendezvous banners, each rank's STATS line), formatted like
// faultnet's chaos-log lines so the two streams interleave attributably when
// several processes share a terminal. One Write call per line keeps
// concurrent processes' lines whole.
func Logf(tag, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s[pid %d]: %s\n", tag, os.Getpid(), fmt.Sprintf(format, args...))
}

// RankError reports a failed world launch together with the first non-zero
// worker exit code observed, so launchers can propagate it as their own
// exit status instead of a generic 1.
type RankError struct {
	Err  error
	Code int
	// Rank is the rank whose failure is being reported, -1 when the
	// failure is not attributable to one rank (e.g. a bootstrap error).
	Rank int
}

func (e *RankError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying launch error.
func (e *RankError) Unwrap() error { return e.Err }

// PeerAbortMsg is the canonical FAIL message a worker reports when its rank
// unwound because some *other* rank took the world down — a symptom, not a
// cause. Workers send exactly this text (spmd's recover path) and the
// coordinator recognizes it, so a later report naming the actual cause can
// displace it as the world's error. Keep the text stable: it crosses the wire
// between separately built binaries.
const PeerAbortMsg = "aborted by peer rank"

// ExitCode returns the exit status a launcher should propagate for err: the
// first failing worker's code when known, 1 for any other non-nil error, 0
// for nil.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	var re *RankError
	if errors.As(err, &re) && re.Code != 0 {
		return re.Code
	}
	return 1
}

// Cmd is one spawned worker process with idempotent reaping.
type Cmd struct {
	cmd      *exec.Cmd
	copyWait sync.WaitGroup
	waitOnce sync.Once
	code     int
}

// Start spawns one worker rank executing argv with extraEnv appended to the
// inherited environment and files as its descriptors 3, 4, … (the caller's
// copies stay open). With a tag (such as "[rank 3]"), the worker's stdout
// and stderr are line-buffered through this process and each line is
// prefixed with the tag and a space; with none the streams pass through
// directly.
func Start(argv, extraEnv []string, files []*os.File, tag string) (*Cmd, error) {
	c := &Cmd{cmd: exec.Command(argv[0], argv[1:]...)}
	c.cmd.Env = append(os.Environ(), extraEnv...)
	c.cmd.ExtraFiles = files
	if tag == "" {
		c.cmd.Stdout, c.cmd.Stderr = os.Stdout, os.Stderr
		return c, c.cmd.Start()
	}
	outR, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	errR, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c.copyWait.Add(2)
	go c.prefixCopy(os.Stdout, outR, tag)
	go c.prefixCopy(os.Stderr, errR, tag)
	return c, c.cmd.Start()
}

// prefixCopy relays one stream line by line with the tag. Lines are the
// tagging unit, so interleaved ranks stay readable. On a scanner error (a
// pathological line beyond the buffer cap) it falls back to an untagged
// drain: the pipe must keep flowing or the worker blocks on a full buffer
// and the world hangs.
func (c *Cmd) prefixCopy(dst io.Writer, src io.Reader, tag string) {
	defer c.copyWait.Done()
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		fmt.Fprintf(dst, "%s %s\n", tag, sc.Bytes())
	}
	if sc.Err() != nil {
		io.Copy(dst, src)
	}
}

// Wait reaps the process (idempotently) and returns its exit code; -1 means
// it was killed by a signal or never ran.
func (c *Cmd) Wait() int {
	c.waitOnce.Do(func() {
		c.copyWait.Wait() // exec.Cmd.Wait requires the pipes drained first
		err := c.cmd.Wait()
		switch e := err.(type) {
		case nil:
			c.code = 0
		case *exec.ExitError:
			c.code = e.ExitCode()
		default:
			c.code = -1
		}
	})
	return c.code
}

// KillAll force-kills every still-running worker (nil entries are skipped).
func KillAll(cmds []*Cmd) {
	for _, c := range cmds {
		if c != nil && c.cmd.Process != nil {
			c.cmd.Process.Kill()
		}
	}
}

// ReapAll waits out every worker's exit status (idempotent; safe after
// KillAll), preventing zombie accumulation in long-lived launchers.
func ReapAll(cmds []*Cmd) {
	for _, c := range cmds {
		if c != nil {
			c.Wait()
		}
	}
}
