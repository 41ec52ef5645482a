package main

import "testing"

func TestParseShard(t *testing.T) {
	cases := []struct {
		in   string
		i, n int
		ok   bool
	}{
		{"0/1", 0, 1, true},
		{"1/2", 1, 2, true},
		{"6/7", 6, 7, true},
		{"0/2x", 0, 0, false}, // trailing garbage
		{"1/", 0, 0, false},
		{"/2", 0, 0, false},
		{"a/b", 0, 0, false},
		{"-1/2", 0, 0, false},
		{"2/2", 0, 0, false}, // index past the last shard
		{"0/0", 0, 0, false},
		{"1", 0, 0, false},
		{"0/1/2", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, c := range cases {
		i, n, err := parseShard(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseShard(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && (i != c.i || n != c.n) {
			t.Errorf("parseShard(%q) = %d/%d, want %d/%d", c.in, i, n, c.i, c.n)
		}
	}
}

func TestCheckCkptDir(t *testing.T) {
	cases := []struct {
		dir   string
		merge bool
		ok    bool
	}{
		{"", false, true},
		{".ckpt", false, true}, // direct run, -shard, -prescreen
		{"", true, true},
		{".ckpt", true, false},
	}
	for _, c := range cases {
		err := checkCkptDir(c.dir, c.merge)
		if (err == nil) != c.ok {
			t.Errorf("checkCkptDir(%q, merge=%v): err = %v, want ok=%v", c.dir, c.merge, err, c.ok)
		}
	}
}
