// Package cli is the edge every binary under cmd/ shares, so that a main is
// flag definitions plus wiring: the repo-wide exit-code table, the
// SIGINT/SIGTERM context, the -pprof endpoint, the JSONL sinks behind
// -metrics and -events, and the flag groups several binaries spell the same
// way (flags.go). A binary is
//
//	func main() { cli.Main(run) }
//
// with run returning an error that carries its exit class: no call site
// prints and exits, so deferred clean-up runs and the sinks are flushed on
// every path out.
//
// The package knows no subsystem: a daemon hands Integrity the sentinel
// errors it classes as integrity failures, and Session the one that means
// "fenced off".
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// The exit-code table (README "Exit codes"). Package flag itself exits
// with ExitUsage on an undefined flag or an unparsable value.
const (
	ExitOK        = 0
	ExitFatal     = 1   // any error without a class below
	ExitUsage     = 2   // bad flag value or combination
	ExitIntegrity = 3   // an artifact is corrupt, truncated or missing: restore it — a restart cannot help
	ExitRevoked   = 4   // the coordinator fenced this session off: relaunch for a fresh one
	ExitSignal    = 130 // SIGINT/SIGTERM, drained gracefully
)

type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

// Exit gives err the exit class code.
func Exit(code int, err error) error { return &exitError{code, err} }

// Exitf is Exit over a formatted message.
func Exitf(code int, format string, a ...any) error {
	return &exitError{code, fmt.Errorf(format, a...)}
}

// Integrity classes err as ExitIntegrity when it wraps one of the
// sentinels. An error that already has a class keeps it.
func Integrity(err error, sentinels ...error) error {
	var classed *exitError
	if err == nil || errors.As(err, &classed) {
		return err
	}
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return Exit(ExitIntegrity, err)
		}
	}
	return err
}

// Session classes how a coordinator-driven session (a sage-collect agent, a
// sage-train worker) ended: nil when the campaign or run completed,
// ExitRevoked when err wraps revoked — the coordinator evicted or replaced
// the session but the host is healthy, so a supervisor should relaunch
// rather than alert — ExitSignal when a signal drained it, fatal otherwise.
func Session(ctx context.Context, who string, err, revoked error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, revoked):
		return Exit(ExitRevoked, fmt.Errorf("%s: %w", who, err))
	case ctx.Err() != nil, errors.Is(err, context.Canceled):
		return Exitf(ExitSignal, "%s: drained on signal", who)
	}
	return fmt.Errorf("%s: %w", who, err)
}

// SessionID is the default identity of an agent or worker: host:pid.
func SessionID(fallbackHost string) string {
	host, _ := os.Hostname()
	if host == "" {
		host = fallbackHost
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// Logf is the line logger the daemons hand their subsystems: stderr.
func Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// Code is the table: the class err carries, ExitSignal for a bare
// cancellation, ExitFatal for anything else.
func Code(err error) int {
	var classed *exitError
	switch {
	case err == nil:
		return ExitOK
	case errors.As(err, &classed):
		return classed.code
	case errors.Is(err, context.Canceled):
		return ExitSignal
	}
	return ExitFatal
}

// Main runs a binary: run gets a context that SIGINT or SIGTERM cancels and
// the process's flag set. When run returns, the sinks are closed, the error
// is printed and the process exits with its Code.
func Main(run func(ctx context.Context, f *Flags) error) {
	os.Exit(runMain(run, &Flags{FlagSet: flag.CommandLine, args: os.Args[1:]}, os.Stderr))
}

func runMain(run func(ctx context.Context, f *Flags) error, f *Flags, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
	}
	return Code(err)
}
