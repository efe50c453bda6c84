# The classifier behind `make census` (see docs/census.md).
#
# input: lines of `go tool cover -func`, each prefixed with where the
# profile came from: "-" for the workloads' merged profile, otherwise the
# import path of the package whose tests wrote it. A function's class is
# the best of what reached it:
#
#	3  a workload
#	2  the tests of some other package
#	1  only the tests of its own package
#	0  nothing
#
# stdout: "<class> <import path>.<Receiver>.<Func>" for every product
# function outside benchmark/, cmd/ and examples/, unsorted. The receiver
# comes from the declaration itself, which `cover -func` prints only the
# position of; positions never reach the output, so an edit elsewhere in a
# file moves no line of it.

$2 == "total:" { next }
{
	split($2, loc, ":")
	file = loc[1]
	if (file ~ /^repro\/(benchmark|cmd|examples)\//) next
	dir = file
	sub(/\/[^\/]*$/, "", dir)
	key = file ":" loc[2]
	c = 0
	if ($NF + 0 > 0) c = ($1 == "-") ? 3 : ($1 != dir) ? 2 : 1
	if (!(key in class) || c > class[key]) class[key] = c
	pkg[key] = dir
}

# name turns "func (s *Sched[T]) adapt(rs RoundStats) {" into "Sched.adapt".
function name(decl,    recv) {
	sub(/^func /, "", decl)
	if (decl ~ /^\(/) {
		recv = decl
		sub(/\).*/, "", recv)
		sub(/^\(([^ ]* )?\*?/, "", recv)
		sub(/\[.*/, "", recv)
		sub(/^\([^)]*\) /, "", decl)
		sub(/[(\[].*/, "", decl)
		return recv "." decl
	}
	sub(/[(\[].*/, "", decl)
	return decl
}

END {
	for (key in class) {
		split(key, loc, ":")
		file = loc[1]
		sub(/^repro\//, "", file)
		if (!(file in read)) {
			read[file] = 1
			n = 0
			while ((getline line < file) > 0) src[file, ++n] = line
			close(file)
		}
		print class[key], pkg[key] "." name(src[file, loc[2]])
	}
}
