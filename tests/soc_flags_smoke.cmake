# CLI smoke test: gvc_run and gvc_sweep share one SoC flag parser.  Run
# both tools once per shared flag and require the effective SocConfig
# each one exports to be the same, and to differ from the flag-free
# run's (so the flag took effect in both).

function(soc_of out)
    set(run_json "${WORK_DIR}/soc_flags_run.json")
    set(sweep_json "${WORK_DIR}/soc_flags_sweep.json")
    execute_process(COMMAND ${GVC_RUN} -w hotspot -d baseline512
                            --scale 0.05 ${ARGN} --json ${run_json}
                    RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "gvc_run failed (${rc}) with: ${ARGN}")
    endif()
    execute_process(COMMAND ${GVC_SWEEP} --workloads hotspot
                            --designs baseline512 --scale 0.05 --jobs 1
                            ${ARGN} --json ${sweep_json} --quiet
                            --no-table
                    RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "gvc_sweep failed (${rc}) with: ${ARGN}")
    endif()
    file(READ ${run_json} run)
    file(READ ${sweep_json} sweep)
    string(JSON run_soc GET "${run}" soc)
    string(JSON sweep_soc GET "${sweep}" results 0 soc)
    if(NOT run_soc STREQUAL sweep_soc)
        message(FATAL_ERROR "gvc_run and gvc_sweep disagree on the SoC "
                            "for: ${ARGN}\nrun:   ${run_soc}\n"
                            "sweep: ${sweep_soc}")
    endif()
    set(${out} "${run_soc}" PARENT_SCOPE)
endfunction()

soc_of(default_soc)
foreach(flag_value
        "--percu-tlb;64" "--iommu-tlb;1024" "--iommu-bw;2"
        "--fbt-entries;4096" "--tlb-fill-policy;bypass-dead"
        "--iommu-tlb-fill-policy;bypass-trained"
        "--tlb-replacement;srrip" "--cus;8")
    soc_of(soc ${flag_value})
    if(soc STREQUAL default_soc)
        message(FATAL_ERROR "${flag_value} left the SoC unchanged")
    endif()
endforeach()

message(STATUS "gvc_run and gvc_sweep apply all 8 shared SoC flags "
               "identically")
