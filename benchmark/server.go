package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env owns everything the harness leaves outside its own memory: the
// msserve binary, child processes and data directories, all under
// .bench_build/ in the checkout. cleanup releases them on every exit
// path, signals included.
type env struct {
	root    string // checkout root (holds go.mod and cmd/msserve)
	work    string // scratch directory of this harness process
	msserve string // built binary

	mu    sync.Mutex
	procs map[*instance]bool
	seq   int
}

func newEnv(root string) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o777); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, work: work, procs: map[*instance]bool{}}, nil
}

// build compiles cmd/msserve from the checkout and reports how long the
// compile took (run.sh points GOCACHE into .bench_build/). The time is
// reported on its own and is never part of setup_s.
func (e *env) build() (time.Duration, error) {
	e.msserve = filepath.Join(e.root, ".bench_build", "msserve")
	cmd := exec.Command("go", "build", "-o", e.msserve, "./cmd/msserve")
	cmd.Dir = e.root
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("building msserve: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// dataDir returns a fresh, not yet created data directory path.
func (e *env) dataDir(label string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	return filepath.Join(e.work, fmt.Sprintf("%s-%d", label, e.seq))
}

// cleanup kills every live child and removes the scratch directory.
func (e *env) cleanup() {
	e.mu.Lock()
	live := make([]*instance, 0, len(e.procs))
	for in := range e.procs {
		live = append(live, in)
	}
	e.mu.Unlock()
	for _, in := range live {
		in.kill()
	}
	os.RemoveAll(e.work)
}

// instance is one running msserve child.
type instance struct {
	env   *env
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:<port>
	dir   string
	log   *os.File
	once  sync.Once
	hwmKB int64 // VmHWM read just before the process was killed
}

// freePort asks the kernel for an unused TCP port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches msserve over dir with the workload's serving
// configuration and returns once /readyz answers 200.
func (e *env) start(w *workload, dir string) (*instance, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-data-dir", dir}
	if w.fsync {
		args = append(args, "-fsync")
	}
	if w.shards > 1 || w.replicas > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards), "-replicas", strconv.Itoa(w.replicas))
	}
	logf, err := os.OpenFile(dir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.msserve, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	in := &instance{env: e, cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), dir: dir, log: logf}
	e.mu.Lock()
	e.procs[in] = true
	e.mu.Unlock()
	if err := in.waitReady(30 * time.Second); err != nil {
		in.kill()
		tail, _ := os.ReadFile(dir + ".log")
		return nil, fmt.Errorf("msserve did not become ready: %v\n%s", err, tail)
	}
	return in, nil
}

// waitReady polls /readyz until it answers 200.
func (in *instance) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	probe := &http.Client{Timeout: 2 * time.Second}
	var last error
	for time.Now().Before(deadline) {
		resp, err := probe.Get(in.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/readyz: %s", resp.Status)
		}
		last = err
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("timed out after %s: %v", limit, last)
}

// kill ends the child with SIGKILL — no drain, no final WAL sync — and
// waits for it. The OS page cache survives, so what a restart recovers
// is process-crash durability, not power-loss durability.
func (in *instance) kill() {
	in.once.Do(func() {
		in.hwmKB = readHWM(in.cmd.Process.Pid)
		in.cmd.Process.Kill()
		in.cmd.Wait()
		in.log.Close()
		in.env.mu.Lock()
		delete(in.env.procs, in)
		in.env.mu.Unlock()
	})
}

// readHWM returns the process's peak resident set (VmHWM) in KiB, or 0
// when /proc is unavailable.
func readHWM(pid int) int64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:")); ok {
			fields := strings.Fields(string(rest))
			if len(fields) > 0 {
				n, _ := strconv.ParseInt(fields[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
