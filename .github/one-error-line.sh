# Sourced by the workflow. `one_error_line CODE PREFIX COMMAND...` runs COMMAND and
# succeeds only if it exits CODE and prints one line in all, on stdout and stderr
# together, and that line starts with PREFIX.
one_error_line() {
  local want=$1 prefix=$2 err code=0
  shift 2
  err=$("$@" 2>&1) || code=$?
  echo "$*: exit $code: $err"
  [ "$code" -eq "$want" ] && [ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] \
    && [ "${err#"$prefix"}" != "$err" ]
}
