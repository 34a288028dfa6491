package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildBenesd compiles cmd/benesd from the repository at root into
// dir, once per benchmark run.
func buildBenesd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "benesd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/benesd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building benesd in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// findRoot walks up from dir to the repository root: the directory
// holding cmd/benesd and the go.mod of module repro.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module repro\n")) {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "benesd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (go.mod of module repro with cmd/benesd) above the working directory")
		}
		dir = parent
	}
}

// server is one running benesd process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	ctl    *http.Client // control requests: readiness, stats, verify
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// startServer execs bin on a free loopback port with GOMAXPROCS=2,
// writing its log to logPath. The caller must stop it.
func startServer(bin string, flags []string, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting benesd: %w", err)
	}
	s := &server{
		cmd:    cmd,
		base:   "http://" + addr,
		ctl:    &http.Client{Transport: &http.Transport{DisableCompression: true}, Timeout: 60 * time.Second},
		exited: make(chan struct{}),
	}
	go func() {
		s.err = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	return s, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := s.ctl.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("benesd exited before ready: %v", s.err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("benesd not ready after %v: %v", timeout, err)
		}
		// Fine-grained polling: the fastest workloads are ready within a
		// few milliseconds, and setup_s must resolve that.
		time.Sleep(100 * time.Microsecond)
	}
}

// getJSON fetches path and decodes its JSON reply into v.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.ctl.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// drain waits until every packet the fabric accepted has been
// delivered or lost, and returns the settled books.
func (s *server) drain(ctx context.Context) (fabricBooks, error) {
	for {
		var b fabricBooks
		if err := s.getJSON("/fabric/stats", &b); err != nil {
			return b, err
		}
		if b.settled() {
			return b, nil
		}
		select {
		case <-ctx.Done():
			return b, fmt.Errorf("fabric did not drain: %+v", b)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop shuts benesd down gracefully (SIGTERM), killing it if it has not
// exited within the grace period, and waits for the process to end. A
// graceful exit must be clean.
func (s *server) stop() error {
	s.ctl.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already exited process is reported by Wait
	select {
	case <-s.exited:
		if s.err != nil {
			return fmt.Errorf("benesd exit: %w", s.err)
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("benesd did not stop within 20s of SIGTERM")
	}
}

// kill ends the process at once; for error paths.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// cpuSeconds returns the user plus system CPU time of process pid
// ("self" for this one) from /proc.
func cpuSeconds(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%s/stat", pid)
	}
	// The kernel reports clock ticks; USER_HZ is 100 on Linux.
	return (ut + st) / 100, nil
}

// peakRSSMB returns VmHWM, the process's peak resident set, in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
