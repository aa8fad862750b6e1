package rankio

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestExitCode(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{base, 1},
		{&RankError{Err: base, Code: 3}, 3},
		{&RankError{Err: base, Code: 0}, 1},
		{fmt.Errorf("wrapped: %w", &RankError{Err: base, Code: 7}), 7},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
	re := &RankError{Err: base, Code: 2}
	if !errors.Is(re, base) {
		t.Errorf("RankError does not unwrap to its cause")
	}
}

func TestPrefixCopy(t *testing.T) {
	var out bytes.Buffer
	c := &Cmd{}
	c.copyWait.Add(1)
	c.prefixCopy(&out, strings.NewReader("hello\nworld\n"), "[rank 5]")
	want := "[rank 5] hello\n[rank 5] world\n"
	if out.String() != want {
		t.Errorf("prefixCopy wrote %q, want %q", out.String(), want)
	}
}
