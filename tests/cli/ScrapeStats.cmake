# The scraper half of RunStatsServer.cmake: polls for the port file the
# CLI writes, then pulls the live endpoints over HTTP and validates them.
# Inputs: PORT_FILE, WORK_DIR.
set(PORT "")
foreach(I RANGE 300)
  if(EXISTS ${PORT_FILE})
    file(READ ${PORT_FILE} PORT)
    string(STRIP "${PORT}" PORT)
    if(NOT PORT STREQUAL "")
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(PORT STREQUAL "")
  message(FATAL_ERROR "no bound port appeared at ${PORT_FILE}")
endif()

# /metrics: Prometheus text exposition. The run-info metric is registered
# before the server starts, so it is present however early we scrape.
set(METRICS_OUT ${WORK_DIR}/scraped_metrics.txt)
file(DOWNLOAD http://127.0.0.1:${PORT}/metrics ${METRICS_OUT}
  STATUS DL_STATUS TIMEOUT 30)
list(GET DL_STATUS 0 DL_RC)
if(NOT DL_RC EQUAL 0)
  message(FATAL_ERROR "GET /metrics failed: ${DL_STATUS}")
endif()
file(READ ${METRICS_OUT} METRICS)
if(NOT METRICS MATCHES "oppsla_run_info{")
  message(FATAL_ERROR "no oppsla_run_info in /metrics: ${METRICS}")
endif()
if(NOT METRICS MATCHES "command=\"eval\"")
  message(FATAL_ERROR "run_info lacks command=\"eval\": ${METRICS}")
endif()

# /healthz: a JSON object with a status field.
set(HEALTH_OUT ${WORK_DIR}/scraped_healthz.json)
file(DOWNLOAD http://127.0.0.1:${PORT}/healthz ${HEALTH_OUT}
  STATUS DL_STATUS TIMEOUT 30)
list(GET DL_STATUS 0 DL_RC)
if(NOT DL_RC EQUAL 0)
  message(FATAL_ERROR "GET /healthz failed: ${DL_STATUS}")
endif()
file(READ ${HEALTH_OUT} HEALTH)
string(JSON STATUS_FIELD GET "${HEALTH}" status)
if(NOT STATUS_FIELD STREQUAL "ok")
  message(FATAL_ERROR "unexpected /healthz status: ${HEALTH}")
endif()
string(JSON DONE GET "${HEALTH}" done)
string(JSON TOTAL GET "${HEALTH}" total)
message(STATUS "scraped /healthz: ${DONE}/${TOTAL} done")

# /logz: the ambient run trace context must stamp the offline eval path's
# log records, so an operator can correlate live logs with the run's
# trace id outside `oppsla serve`. The id is minted at CLI startup and
# registered as the run_info trace_id label — recover it from /metrics and
# require at least one ring record carrying it.
if(NOT METRICS MATCHES "trace_id=\"([0-9a-f]+)\"")
  message(FATAL_ERROR "run_info lacks a trace_id label: ${METRICS}")
endif()
set(TRACE_ID ${CMAKE_MATCH_1})
# The port file is written before the command runs, so with a cold victim
# cache the first scrape can land while eval is still training and the
# ring holds no record yet. Poll until a stamped record appears. The poll
# gives up after 100 tries 0.2 s apart, so when no record ever carries the
# id the scraper fails after about 20 s instead of polling until the test
# times out.
set(LOGZ_OUT ${WORK_DIR}/scraped_logz.jsonl)
foreach(I RANGE 99)
  file(DOWNLOAD http://127.0.0.1:${PORT}/logz?n=200 ${LOGZ_OUT}
    STATUS DL_STATUS TIMEOUT 5)
  list(GET DL_STATUS 0 DL_RC)
  if(NOT DL_RC EQUAL 0)
    message(FATAL_ERROR "GET /logz failed: ${DL_STATUS}")
  endif()
  file(READ ${LOGZ_OUT} LOGZ)
  if(LOGZ MATCHES "\"trace\":\"${TRACE_ID}\"")
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
endforeach()
if(NOT LOGZ MATCHES "\"msg\":")
  message(FATAL_ERROR "/logz returned no log records: ${LOGZ}")
endif()
if(NOT LOGZ MATCHES "\"trace\":\"${TRACE_ID}\"")
  message(FATAL_ERROR
    "no /logz record is stamped with the run trace id ${TRACE_ID}: ${LOGZ}")
endif()
message(STATUS "scraped /logz: records stamped with trace ${TRACE_ID}")

# Release the CLI's --stats-linger wait.
file(DOWNLOAD http://127.0.0.1:${PORT}/quitquitquit ${WORK_DIR}/quit.txt
  STATUS DL_STATUS TIMEOUT 30)
list(GET DL_STATUS 0 DL_RC)
if(NOT DL_RC EQUAL 0)
  message(FATAL_ERROR "GET /quitquitquit failed: ${DL_STATUS}")
endif()
