# Every malformed or out-of-range spec and numeric argument must make
# iadm_tool exit with status 2 and a diagnostic on stderr: never 0
# (silently running something else) and never an abort.
#
#   cmake -DTOOL=path/to/iadm_tool -P cli_rejects.cmake
#
# One case per line; '|' separates the arguments of a case.  No case
# may get past argument checking, so none starts a simulation, a
# thread pool or a listening socket.

if(NOT TOOL)
    message(FATAL_ERROR "pass -DTOOL=<path to iadm_tool>")
endif()

set(cases
    # fault specs
    "sweep|--sizes|8|--faults|links:4x"
    "sweep|--sizes|8|--faults|switches:1e3"
    "sweep|--sizes|8|--faults|links:-1"
    "sweep|--sizes|8|--faults|links:4:"
    "sweep|--sizes|8|--faults|links:4,"
    # fault counts that do not fit their pool at N=64
    "sweep|--sizes|64|--faults|links:5000"
    "sweep|--sizes|64|--faults|nonstraight:5000"
    "sweep|--sizes|64|--faults|switches:999"
    "sweep|--sizes|64|--faults|double:999"
    "sweep|--sizes|8,64|--faults|links:100"
    "serve|--net|64|--faults|links:5000|--socket|cli_rejects.sock"
    # churn specs
    "sweep|--sizes|8|--churn|geometric:400x:80"
    "sweep|--sizes|8|--churn|burst:10:5:-1"
    "sweep|--sizes|8|--churn|geometric:nan:80"
    "sweep|--sizes|8|--churn|bernoulli:nan:0.1"
    "sim|8|tsdt|0.1|10|--churn|geometric:nan:80"
    "sim|8|tsdt|0.1|10|--churn|bernoulli:nan:0.1"
    # scenario specs
    "sweep|--sizes|8|--scenario|shape:closed: -1"
    "sweep|--sizes|8|--scenario|shape:closed:4294967296"
    "sweep|--sizes|8|--traffic|uniform:"
    "sweep|--sizes|8|--traffic|dst:uniform/"
    "sim|8|tsdt|0.1|10|--scenario|hotspot:0:nan"
    # link specs
    "route|16|0|5|1:0:sx"
    "route|16|0|5|1:0:s:9"
    "trace|0|5|--faults|1:0:sx"
    "serve|--net|16|--faults|1:0:s:9|--socket|cli_rejects.sock"
    # permutation specs
    "perm|64|shift:x"
    "perm|64|shift:64"
    "perm|64|shift"
    "perm|64|bitrev:3"
    "perm|64|exchange:6"
    "perm|32|transpose"
    # numeric arguments
    "diagram|64x"
    "paths|64|5|70"
    "route|64|999|5"
    "route|16|0|5|--repeat|0"
    "sim|64|tsdt|abc|100"
    "sim|64|tsdt|1.7|50"
    "sim|64|tsdt|0.1|1e3"
    "sim|8|tsdt|0.1|10|--max-age|abc"
    "trace|abc|1"
    "trace|0|1|--n|3"
    "snapshot|cli_rejects.bin|abc"
    "sweep|--sizes|6"
    "sweep|--sizes|8|--rates|abc"
    "sweep|--sizes|8|--rates|1.5"
    "sweep|--sizes|8|--cycles|2x0"
    "sweep|--sizes|8|--max-age|abc"
    "sweep|--sizes|8|--caps|0"
    "sweep|--sizes|8|--replicates|0"
    "sweep|--sizes|8|--crossbar|2"
    "sweep|--sizes|8|--seed|-1"
    "sweep|--sizes|8|--workers|4x"
    "serve|--net|abc|--socket|cli_rejects.sock"
    "serve|--net|16|--tick-us|5x|--socket|cli_rejects.sock"
)

set(failures 0)
foreach(case IN LISTS cases)
    string(REPLACE "|" ";" args "${case}")
    execute_process(COMMAND "${TOOL}" ${args}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err
                    TIMEOUT 30)
    if(NOT rc STREQUAL "2" OR err STREQUAL "")
        message(SEND_ERROR "iadm_tool ${case}: want exit 2 with a "
                           "diagnostic, got '${rc}': ${err}")
        math(EXPR failures "${failures} + 1")
    endif()
endforeach()
list(LENGTH cases total)
message(STATUS "${total} rejection forms, ${failures} accepted")
