package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Measured programs are started by a small launcher process, a second
// copy of this command started before the benchmark allocates anything.
// Linux counts the high-water RSS of the process that starts a child into
// the child's ru_maxrss, and the benchmark itself grows past the programs
// it measures (the host probe, the in-process reference run), so children
// it started directly would report its peak instead of their own.

// launchRequest asks the launcher to run one program to completion.
type launchRequest struct {
	Path   string   `json:"path"`
	Args   []string `json:"args"`
	Stdout string   `json:"stdout"` // file that receives the program's stdout
}

// launchResult is one finished program, as the launcher measured it.
type launchResult struct {
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	RSSMB float64 `json:"rss_mb"`
	Err   string  `json:"err,omitempty"`
}

// serveLaunches is the launcher's side: it runs each request from r and
// writes its result to w, until r ends.
func serveLaunches(r io.Reader, w io.Writer) error {
	dec := json.NewDecoder(r)
	enc := json.NewEncoder(w)
	for {
		var req launchRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if err := enc.Encode(launch(req)); err != nil {
			return err
		}
	}
}

func launch(req launchRequest) launchResult {
	out, err := os.Create(req.Stdout)
	if err != nil {
		return launchResult{Err: err.Error()}
	}
	res := execute(req.Path, req.Args, out)
	if err := out.Close(); err != nil && res.Err == "" {
		res.Err = err.Error()
	}
	return res
}

// launcher is the benchmark's handle on the launcher process.
type launcher struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	enc    *json.Encoder
	dec    *json.Decoder
	stdout string // the file children's stdout goes to
}

func startLauncher(self, work string) (*launcher, error) {
	cmd := exec.Command(self, "-launcher")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &launcher{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin),
		dec: json.NewDecoder(bufio.NewReader(stdout)), stdout: filepath.Join(work, "child.stdout")}, nil
}

// run runs a program through the launcher and returns it finished.
func (l *launcher) run(path string, args ...string) (child, error) {
	if err := l.enc.Encode(launchRequest{Path: path, Args: args, Stdout: l.stdout}); err != nil {
		return child{}, fmt.Errorf("launcher: %w", err)
	}
	var res launchResult
	if err := l.dec.Decode(&res); err != nil {
		return child{}, fmt.Errorf("launcher: %w", err)
	}
	c := child{wall: res.WallS, cpu: res.CPUS, rssMB: res.RSSMB}
	if res.Err != "" {
		c.err = errors.New(res.Err)
		return c, nil
	}
	out, err := os.ReadFile(l.stdout)
	if err != nil {
		return child{}, err
	}
	c.stdout = out
	return c, nil
}

// close ends the launcher and waits for it.
func (l *launcher) close() error {
	l.stdin.Close()
	return l.cmd.Wait()
}
