package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// daemon is one galleryd or galleryserve process started from the binaries
// built from the checkout under test, with default flags except its listen
// address, data dir and (for galleryserve) the galleryd URL.
type daemon struct {
	name    string
	bin     string
	args    []string
	ready   string // URL answering 200 once the daemon serves
	logPath string

	cmd  *exec.Cmd
	logf *os.File
	done chan struct{} // closed once the process has been reaped
}

// live tracks every started daemon so that any exit path can stop them.
var live struct {
	mu sync.Mutex
	ds map[*daemon]bool
}

func (d *daemon) start() error {
	f, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = f, f
	// Backstop: the kernel kills the daemon if this process dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("start %s: %w", d.name, err)
	}
	d.cmd, d.logf, d.done = cmd, f, make(chan struct{})
	go func(done chan struct{}) {
		_ = cmd.Wait() // the exit status of a killed daemon carries no information
		close(done)
	}(d.done)
	live.mu.Lock()
	if live.ds == nil {
		live.ds = make(map[*daemon]bool)
	}
	live.ds[d] = true
	live.mu.Unlock()
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitReady polls the daemon's ready URL until it answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up; see %s", d.name, d.logPath)
		default:
		}
		resp, err := hc.Get(d.ready)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %v: %v", d.name, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// signal sends sig and waits up to grace for the process to end, then
// kills it.
func (d *daemon) signal(sig syscall.Signal, grace time.Duration) {
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Signal(sig) // fails only if the process already ended
	select {
	case <-d.done:
	case <-time.After(grace):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.logf.Close()
	live.mu.Lock()
	delete(live.ds, d)
	live.mu.Unlock()
	d.cmd = nil
}

func (d *daemon) kill() { d.signal(syscall.SIGKILL, 10*time.Second) }
func (d *daemon) stop() { d.signal(syscall.SIGTERM, 10*time.Second) }

// stopAll stops every daemon still running.
func stopAll() {
	live.mu.Lock()
	ds := make([]*daemon, 0, len(live.ds))
	for d := range live.ds {
		ds = append(ds, d)
	}
	live.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// cluster is one galleryd and one galleryserve in front of it.
type cluster struct {
	dir    string
	gd, gs *daemon
	gdURL  string
	gsURL  string
}

// launch starts both daemons on fresh ports over dataDir and waits until
// both answer.
func launch(binDir, dataDir string) (*cluster, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	p1, err := freePort()
	if err != nil {
		return nil, err
	}
	p2, err := freePort()
	if err != nil {
		return nil, err
	}
	gdAddr, gsAddr := fmt.Sprintf("127.0.0.1:%d", p1), fmt.Sprintf("127.0.0.1:%d", p2)
	c := &cluster{dir: dataDir, gdURL: "http://" + gdAddr, gsURL: "http://" + gsAddr}
	c.gd = &daemon{
		name: "galleryd", bin: filepath.Join(binDir, "galleryd"),
		args:    []string{"-addr", gdAddr, "-data", filepath.Join(dataDir, "galleryd")},
		ready:   c.gdURL + "/v1/stats",
		logPath: filepath.Join(dataDir, "galleryd.log"),
	}
	c.gs = &daemon{
		name: "galleryserve", bin: filepath.Join(binDir, "galleryserve"),
		args:    []string{"-addr", gsAddr, "-gallery", c.gdURL},
		ready:   c.gsURL + "/v1/healthz",
		logPath: filepath.Join(dataDir, "galleryserve.log"),
	}
	if err := c.gd.start(); err != nil {
		return nil, err
	}
	if err := c.gs.start(); err != nil {
		c.stop()
		return nil, err
	}
	for _, d := range []*daemon{c.gd, c.gs} {
		if err := d.waitReady(30 * time.Second); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// restartGalleryd kills galleryd with SIGKILL, starts it again over the
// same data dir and returns the time from the kill to its first answer.
func (c *cluster) restartGalleryd() (time.Duration, error) {
	start := time.Now()
	c.gd.kill()
	if err := c.gd.start(); err != nil {
		return 0, err
	}
	if err := c.gd.waitReady(60 * time.Second); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (c *cluster) stop() {
	c.gs.stop()
	c.gd.stop()
}

// cpuUS is both daemons' CPU time, split by process.
type cpuUS struct{ gd, gs int64 }

func (c *cluster) cpu() (cpuUS, error) {
	gd, err1 := procCPU(c.gd.pid())
	gs, err2 := procCPU(c.gs.pid())
	return cpuUS{gd, gs}, errors.Join(err1, err2)
}

func (a cpuUS) sub(b cpuUS) cpuUS { return cpuUS{a.gd - b.gd, a.gs - b.gs} }
func (a cpuUS) total() int64      { return a.gd + a.gs }

// rssBytes is VmRSS of both daemons summed.
func (c *cluster) rssBytes() (int64, error) {
	a, err1 := procRSS(c.gd.pid())
	b, err2 := procRSS(c.gs.pid())
	return a + b, errors.Join(err1, err2)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// walBytes is the size of galleryd's metadata WAL.
func (c *cluster) walBytes() (int64, error) {
	fi, err := os.Stat(filepath.Join(c.dir, "galleryd", "meta.wal"))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
