//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/tdmatch/tdmatch"
)

// buildDaemon compiles ./cmd/tdserved into the harness's output
// directory, before any clock starts. go build skips the link when the
// binary is already up to date.
func buildDaemon(root, out string) (string, error) {
	bin := out + "/tdserved"
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tdserved")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building tdserved: %v\n%s", err, msg)
	}
	return bin, nil
}

// daemon is one running tdserved subprocess. Every daemon the harness
// starts is registered with its run, which reaps whatever is still
// alive when the run ends.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	done chan struct{} // closed once the process has been waited for
	http *http.Client
}

// readyTimeout bounds one start-to-/readyz wait.
const readyTimeout = 60 * time.Second

// startDaemon launches bin with the given flags plus a kernel-chosen
// loopback port, and returns once GET /readyz answers 200 together
// with the exec-to-ready time. The listen address is read off the
// daemon's "serving ... on <addr>" log line; the log goes to logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The kernel kills the daemon when the harness dies, so that a harness
	// killed by a timeout leaves no process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), http: newHTTPClient()}
	addr := make(chan string, 1)
	go func() {
		// Copies the daemon's log to the file for the whole life of the
		// process and reports the listen address once; ends at EOF, when
		// the daemon has exited, and only then is the process waited for.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if i := strings.LastIndex(line, " on 127.0.0.1:"); i >= 0 && strings.Contains(line, "tdserved: serving ") {
				select {
				case addr <- line[i+len(" on "):]:
				default:
				}
			}
		}
		cmd.Wait()
		logFile.Close()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		return nil, 0, fmt.Errorf("tdserved exited before listening (see %s)", logPath)
	case <-time.After(readyTimeout):
		d.kill()
		return nil, 0, fmt.Errorf("tdserved did not listen within %s (see %s)", readyTimeout, logPath)
	}
	for {
		resp, err := d.http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > readyTimeout {
			d.kill()
			return nil, 0, fmt.Errorf("tdserved not ready within %s (see %s)", readyTimeout, logPath)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop shuts the daemon down gracefully (SIGTERM) and waits for it,
// escalating to SIGKILL if the drain overruns.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

// kill is the crash: SIGKILL, then wait until the process has ended.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// rssMB reads the daemon's peak resident set (VmHWM) from /proc.
func (d *daemon) rssMB() (float64, error) { return residentMB(d.cmd.Process.Pid, "VmHWM") }

// watchRSS samples the daemon's current resident set (VmRSS) every
// 50 ms until stop is closed, then sends the samples in MB.
func (d *daemon) watchRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var seen []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- seen
				return
			case <-tick.C:
				if mb, err := residentMB(d.cmd.Process.Pid, "VmRSS"); err == nil {
					seen = append(seen, mb)
				}
			}
		}
	}()
	return out
}

// residentMB reads one resident-set field of a process's /proc status
// in MB: VmHWM is the peak, VmRSS the current size.
func residentMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line in /proc status", field)
}

// newHTTPClient returns a client with its own keep-alive connection, for
// everything but the timed /v1/topk loops (see wire): warming, output
// checks, ingests, /v1/compact.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   120 * time.Second, // above the slowest /v1/compact
	}
}

// errShed marks a 503 answer: the daemon refused the request.
var errShed = errors.New("shed (503)")

// post sends one JSON body and, when into is non-nil, decodes a 200
// answer into it. A 503 is errShed; any other status is an error.
func post(c *http.Client, url string, body []byte, into any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusServiceUnavailable {
			return errShed
		}
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if into == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// topkBody is the /v1/topk request for one document at the harness's k.
func topkBody(id string) []byte {
	return []byte(`{"id":` + strconv.Quote(id) + `,"k":` + strconv.Itoa(k) + `}`)
}

// topk asks the daemon for one ranking and returns the matched IDs.
func (d *daemon) topk(c *http.Client, id string) ([]string, error) {
	var resp struct {
		Matches []struct {
			ID string `json:"id"`
		} `json:"matches"`
	}
	if err := post(c, d.base+"/v1/topk", topkBody(id), &resp); err != nil {
		return nil, err
	}
	ids := make([]string, len(resp.Matches))
	for i, m := range resp.Matches {
		ids[i] = m.ID
	}
	return ids, nil
}

// ingestBody is the /v1/ingest request for one document.
func ingestBody(doc tdmatch.IngestDoc) []byte {
	body, err := json.Marshal(map[string]any{"docs": []map[string]any{{
		"side": doc.Side, "id": doc.ID, "values": doc.Values,
	}}})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return body
}

// stats fetches /v1/stats.
func (d *daemon) stats() (tdmatch.ServeStats, error) {
	var st tdmatch.ServeStats
	resp, err := d.http.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
