# Setup shared by the tools/run_*.sh drivers. Source it right after
# `set -euo pipefail`, naming the driver for failure messages:
#   source "$(dirname "${BASH_SOURCE[0]}")/common.sh" "SERVE DRIVER"
# It sets SOURCE_DIR (the repository root) and defines log, fail (exit 1),
# unknown_arg and require_exe (exit 2), and make_work_dir VAR (sets VAR to a
# temporary directory removed when the driver exits).

DRIVER_NAME="$1"
SOURCE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
WORK_DIRS=()
trap 'if (( ${#WORK_DIRS[@]} )); then rm -rf "${WORK_DIRS[@]}"; fi' EXIT

log()  { printf '\n== %s ==\n' "$*"; }
fail() { echo "${DRIVER_NAME} FAILED: $*" >&2; exit 1; }

unknown_arg() { echo "unknown argument: $1" >&2; exit 2; }

require_exe() {  # flag, path
  [[ -n "$2" && -x "$2" ]] && return 0
  echo "usage: $0 $1 PATH (an executable; got '$2')" >&2
  exit 2
}

make_work_dir() {  # variable name
  local dir
  dir="$(mktemp -d)"
  WORK_DIRS+=("${dir}")
  printf -v "$1" '%s' "${dir}"
}
