package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runEnv is recorded with every result set, so a number always carries
// the machine and code it was measured on.
type runEnv struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// GitSHA is the checkout's commit, or "unknown" when the checkout
	// is not a git repository.
	GitSHA string `json:"git_sha"`
}

// collectEnv records the environment and refuses to measure on fewer
// scheduler threads than CPUs: a 1-core number is not a measurement of
// a 2-core box.
func collectEnv(root string) (runEnv, error) {
	e := runEnv{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), CPUModel: cpuModel()}
	if e.GoMaxProcs < e.NProc {
		return e, fmt.Errorf("GOMAXPROCS=%d is below nproc=%d; refusing to record a result", e.GoMaxProcs, e.NProc)
	}
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return e, fmt.Errorf("go toolchain: %w", err)
	}
	e.GoVersion = strings.TrimSpace(string(out))
	e.GitSHA = "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(out))
	}
	return e, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func containsLine(text, line string) bool {
	for _, l := range strings.Split(text, "\n") {
		if strings.TrimSpace(l) == line {
			return true
		}
	}
	return false
}

// procRun is one finished child process.
type procRun struct {
	stdout []byte
	wall   time.Duration
	use    usage
}

// runProc runs bin to completion and returns its stdout, wall time and
// rusage; a non-zero exit is an error carrying the stderr tail.
func runProc(ctx context.Context, bin string, args ...string) (procRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := procRun{stdout: stdout.Bytes(), wall: time.Since(start)}
	if cmd.ProcessState != nil {
		ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		r.use = usageOf(ru)
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, tail(stderr.Bytes()))
	}
	return r, nil
}

func tail(b []byte) string {
	const n = 400
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

// build compiles the named commands of the checkout into b.bin.
func (b *bench) build(cmds ...string) error {
	args := []string{"build", "-o", b.bin + string(filepath.Separator)}
	for _, c := range cmds {
		args = append(args, "./cmd/"+c)
	}
	cmd := exec.CommandContext(b.ctx, "go", args...)
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w: %s", err, tail(out))
	}
	return nil
}

func (b *bench) binary(name string) string { return filepath.Join(b.bin, name) }

// runMeta is the part of lagreport's runmeta.json the checks read.
type runMeta struct {
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Metrics    struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"metrics"`
}

func readRunMeta(dir string) (*runMeta, error) {
	data, err := os.ReadFile(filepath.Join(dir, "runmeta.json"))
	if err != nil {
		return nil, err
	}
	var m runMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("runmeta.json: %w", err)
	}
	return &m, nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
