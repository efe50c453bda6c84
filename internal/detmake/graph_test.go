package detmake

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fs"
)

func mkTask(id, action string, outs, ins []string) *Task {
	return &Task{ID: id, Action: action, Inputs: ins, Outputs: outs}
}

func TestGraphValidation(t *testing.T) {
	cases := []struct {
		name  string
		tasks []*Task
		want  error
	}{
		{"empty id", []*Task{mkTask("", "gen", []string{"x"}, nil)}, ErrBadTask},
		{"no action", []*Task{{ID: "a", Outputs: []string{"x"}}}, ErrBadTask},
		{"no outputs", []*Task{{ID: "a", Action: "gen"}}, ErrBadTask},
		{"dup id", []*Task{mkTask("a", "gen", []string{"x"}, nil), mkTask("a", "gen", []string{"y"}, nil)}, ErrBadTask},
		{"reserved path", []*Task{mkTask("a", "gen", []string{"#x"}, nil)}, ErrBadTask},
		{"absolute path", []*Task{mkTask("a", "gen", []string{"/x"}, nil)}, ErrBadTask},
		{"dup input", []*Task{mkTask("a", "concat", []string{"x"}, []string{"s", "s"})}, ErrBadTask},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewGraph(tc.tasks); !errors.Is(err, tc.want) {
				t.Fatalf("NewGraph = %v, want %v", err, tc.want)
			}
		})
	}
}

// A declared path is one the build tree's fs image can hold: checkPath
// refuses, as ErrBadTask before anything executes, every path
// fs.splitPath would refuse mid-build as "fs: invalid file name" — and
// accepts the longest component the image does. The same list guards
// an output, an input and a Config.Sources key.
func TestDeclaredPathsAreRepresentable(t *testing.T) {
	long := strings.Repeat("n", fs.MaxNameLen)
	for _, tc := range []struct {
		path string
		ok   bool
	}{
		{"a", true}, {"a/b/c.txt", true}, {"a/b#c", true}, {"..a/.b", true},
		{long[1:], true}, {"dir/" + long[1:], true},
		{"", false}, {"/", false}, {"/a", false}, {"a/", false}, {"a//b", false},
		{".", false}, {"./a", false}, {"a/.", false}, {"a/./b", false},
		{"..", false}, {"../a", false}, {"a/../b", false}, {"a/..", false},
		{"#a", false}, {"a/#b", false},
		{long, false}, {"dir/" + long, false}, {long + "/f", false},
	} {
		_, outErr := NewGraph([]*Task{mkTask("t", "gen", []string{tc.path}, nil)})
		_, inErr := NewGraph([]*Task{mkTask("t", "upper", []string{"out"}, []string{tc.path})})
		_, srcErr := Build(Config{Graph: mustGraph(t, []*Task{mkTask("t", "gen", []string{"out"}, nil)}),
			Sources: map[string][]byte{tc.path: []byte("x")}})
		for where, err := range map[string]error{"output": outErr, "input": inErr, "source": srcErr} {
			if tc.ok && err != nil {
				t.Errorf("%s %q refused: %v", where, tc.path, err)
			}
			if !tc.ok && !errors.Is(err, ErrBadTask) {
				t.Errorf("%s %q: %v, want ErrBadTask", where, tc.path, err)
			}
		}
		if !tc.ok {
			continue
		}
		// What checkPath accepts, the image holds: the build runs.
		g := mustGraph(t, []*Task{{ID: "t", Action: "gen", Args: []string{"x"}, Outputs: []string{tc.path}}})
		if _, err := Build(Config{Graph: g}); err != nil {
			t.Errorf("build declaring output %q: %v", tc.path, err)
		}
	}
}

// Two tasks declaring one output path conflict statically, attributed
// to the sorted pair regardless of declaration order.
func TestDuplicateOutputAttribution(t *testing.T) {
	for _, order := range [][]*Task{
		{mkTask("zz", "gen", []string{"x"}, nil), mkTask("aa", "gen", []string{"x"}, nil)},
		{mkTask("aa", "gen", []string{"x"}, nil), mkTask("zz", "gen", []string{"x"}, nil)},
	} {
		_, err := NewGraph(order)
		var dup *DuplicateOutputError
		if !errors.As(err, &dup) {
			t.Fatalf("NewGraph = %v, want *DuplicateOutputError", err)
		}
		if dup.Path != "x" || dup.Tasks != [2]string{"aa", "zz"} {
			t.Fatalf("attribution = %q %v, want x [aa zz]", dup.Path, dup.Tasks)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g, err := NewGraph([]*Task{
		mkTask("a", "upper", []string{"x"}, []string{"y"}),
		mkTask("b", "upper", []string{"y"}, []string{"x"}),
		mkTask("c", "gen", []string{"z"}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Plan(nil)
	var cyc *CycleError
	if !errors.As(err, &cyc) {
		t.Fatalf("Plan = %v, want *CycleError", err)
	}
	if !reflect.DeepEqual(cyc.Tasks, []string{"a", "b"}) {
		t.Fatalf("cycle tasks = %v, want [a b]", cyc.Tasks)
	}
}

func TestMissingInput(t *testing.T) {
	g, err := NewGraph([]*Task{mkTask("a", "upper", []string{"x"}, []string{"nowhere"})})
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Plan(map[string]bool{"elsewhere": true})
	var miss *MissingInputError
	if !errors.As(err, &miss) {
		t.Fatalf("Plan = %v, want *MissingInputError", err)
	}
	if miss.Task != "a" || miss.Path != "nowhere" {
		t.Fatalf("missing = %+v", miss)
	}
}

// Waves follow longest-path levels with task-ID order inside each wave.
func TestPlanWaves(t *testing.T) {
	g, err := NewGraph([]*Task{
		mkTask("link", "concat", []string{"a.out"}, []string{"m.o", "u.o"}),
		mkTask("cc-m", "upper", []string{"m.o"}, []string{"m.c"}),
		mkTask("cc-u", "upper", []string{"u.o"}, []string{"u.c"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.Plan(map[string]bool{"m.c": true, "u.c": true})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]string
	for _, w := range plan.Waves {
		var ids []string
		for _, task := range w {
			ids = append(ids, task.ID)
		}
		got = append(got, ids)
	}
	want := [][]string{{"cc-m", "cc-u"}, {"link"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("waves = %v, want %v", got, want)
	}
}

func TestCone(t *testing.T) {
	g, err := NewGraph([]*Task{
		mkTask("c1", "upper", []string{"o1"}, []string{"s1"}),
		mkTask("c2", "upper", []string{"o2"}, []string{"s2"}),
		mkTask("link", "concat", []string{"bin"}, []string{"o1", "o2"}),
		mkTask("other", "upper", []string{"ox"}, []string{"sx"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Cone("s1"); !reflect.DeepEqual(got, []string{"c1", "link"}) {
		t.Fatalf("Cone(s1) = %v", got)
	}
	if got := g.Cone("sx"); !reflect.DeepEqual(got, []string{"other"}) {
		t.Fatalf("Cone(sx) = %v", got)
	}
	if got := g.Cone("bin"); len(got) != 0 {
		t.Fatalf("Cone(bin) = %v, want empty", got)
	}
}
